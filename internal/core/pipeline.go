package core

import (
	"context"
	"math"
	"slices"
	"sort"

	"lusail/internal/client"
	"lusail/internal/op"
	"lusail/internal/rdf"
)

// branchStream assembles the streaming pipeline for one planned branch:
// the SAPE execution strategy (delay decisions, concurrent scans, bound
// joins for delayed subqueries) expressed as a tree of pull operators
// instead of a sequence of materialization barriers.
//
// Shape: the non-delayed subquery with the largest estimated cardinality
// becomes the driving probe stream — the relation that would dominate a
// materialized execution's memory flows through the pipeline row by row
// instead. Every other non-delayed subquery joins it as the build side of
// an incremental hash join (smallest, connected first), so only the
// smaller relations are held in memory, and only up to the spill budget.
// Delayed subqueries become pipelined bound joins fed blockwise from the
// stream; a delayed subquery sharing no variable with the accumulated
// stream falls back to an unbound scan under a (cross) hash join.
// Non-delayed scans and delayed bound joins interleave by connectivity: a
// delayed subquery often bridges two scans that share no variable with
// each other, and bound-joining it first keeps their cross product from
// ever materializing (LUBM Q4's shape). VALUES
// blocks join as in-memory build sides, OPTIONAL blocks as left joins
// (selective first) — a bound join in optional mode when the block shares
// a variable with the stream, else a left hash join over an unbound scan
// — and the tail applies branch filters, aligns to the branch's
// variables, and deduplicates. Every operator's rows are ids in dict.
func (e *Engine) branchStream(ctx context.Context, pb *plannedBranch, dict *rdf.Dict, prof *Profile) (op.RowStream, error) {
	if pb.empty {
		return op.NewSlice(pb.br.Vars(), nil), nil
	}
	br := pb.br
	sqs := cloneSubqueries(pb.sqs)
	optionals := slices.Clone(pb.optionals)

	// Delay decisions over the mandatory subqueries (Figure 7).
	if !e.opts.DisableSAPE && len(sqs) > 1 {
		cards := make([]float64, len(sqs))
		numEPs := make([]float64, len(sqs))
		known := make([]bool, len(sqs))
		for i, sq := range sqs {
			cards[i] = sq.EstCard
			numEPs[i] = float64(len(sq.Sources))
			known[i] = sq.CardKnown
		}
		delayed := delayDecisions(cards, numEPs, known, e.opts.Threshold)
		for i, d := range delayed {
			sqs[i].Delayed = d
		}
		ensureNonDelayed(sqs)
	}
	var nonDelayed, delayed []*Subquery
	for _, sq := range sqs {
		if sq.Delayed {
			prof.Delayed++
			delayed = append(delayed, sq)
		} else {
			nonDelayed = append(nonDelayed, sq)
		}
	}

	effCard := func(sq *Subquery) float64 {
		if !sq.CardKnown {
			return math.Inf(1)
		}
		return sq.EstCard
	}

	// The largest non-delayed subquery drives the pipeline.
	var acc op.RowStream
	if len(nonDelayed) > 0 {
		drive := 0
		for i, sq := range nonDelayed {
			if effCard(sq) > effCard(nonDelayed[drive]) {
				drive = i
			}
		}
		driveSq := nonDelayed[drive]
		nonDelayed = append(nonDelayed[:drive], nonDelayed[drive+1:]...)
		acc = e.newScanStream(ctx, driveSq, client.PhaseSubquery, dict, prof)
	} else if len(delayed) > 0 {
		// Everything got delayed and SAPE is off or ensureNonDelayed was
		// bypassed; seed with the most selective as an unbound scan.
		best := 0
		for i, sq := range delayed {
			if effCard(sq) < effCard(delayed[best]) {
				best = i
			}
		}
		seed := delayed[best]
		delayed = append(delayed[:best], delayed[best+1:]...)
		acc = e.newScanStream(ctx, seed, client.PhaseSubquery, dict, prof)
	} else {
		// A branch without mandatory subqueries (VALUES/OPTIONAL only)
		// starts from the single empty solution.
		acc = op.NewSlice(nil, [][]uint32{{}})
	}

	accHas := func(sq *Subquery) bool {
		have := map[string]bool{}
		for _, v := range acc.Vars() {
			have[v] = true
		}
		for _, v := range sq.Vars() {
			if have[v] {
				return true
			}
		}
		return false
	}
	// peek finds the best next subquery in sqs without removing it:
	// connected to the stream first, most selective among those (or among
	// all when nothing connects). take commits the choice.
	peek := func(sqs []*Subquery) (int, bool) {
		best, bestConn := -1, false
		for i, sq := range sqs {
			conn := accHas(sq)
			switch {
			case best < 0,
				conn && !bestConn,
				conn == bestConn && effCard(sq) < effCard(sqs[best]):
				best, bestConn = i, conn
			}
		}
		return best, bestConn
	}
	take := func(sqs []*Subquery, i int) (*Subquery, []*Subquery) {
		sq := sqs[i]
		return sq, append(sqs[:i], sqs[i+1:]...)
	}

	// Remaining subqueries join greedily by connectivity. A connected
	// non-delayed scan is the cheapest next step (an in-memory build side
	// that must be fetched regardless); otherwise a connected delayed
	// subquery joins as a pipelined bound join — often bridging scans that
	// share no variable with each other, so the cross join below stays a
	// true last resort. Each join widens the stream's variable set, which
	// can connect subqueries that were disconnected a step earlier.
	for len(nonDelayed) > 0 || len(delayed) > 0 {
		ni, nConn := peek(nonDelayed)
		di, dConn := peek(delayed)
		var sq *Subquery
		switch {
		case ni >= 0 && (nConn || di < 0 || !dConn):
			// A non-delayed scan joins whenever one connects, and
			// cross-joins only when no delayed subquery could bridge
			// the gap first.
			sq, nonDelayed = take(nonDelayed, ni)
			build := e.newScanStream(ctx, sq, client.PhaseSubquery, dict, prof)
			acc = op.HashJoin(ctx, acc, build, e.join)
		case di >= 0 && dConn:
			sq, delayed = take(delayed, di)
			acc = e.newBoundJoinStream(ctx, acc, sq, dict)
		default:
			// Only delayed subqueries remain and none connects:
			// degrade to an unbound scan under a cross hash join.
			sq, delayed = take(delayed, di)
			build := e.newScanStream(ctx, sq, client.PhaseSubquery, dict, prof)
			acc = op.HashJoin(ctx, acc, build, e.join)
		}
	}

	// VALUES blocks from the query text join as in-memory build sides.
	for _, vd := range br.Values {
		acc = op.HashJoin(ctx, acc, op.NewSlice(vd.Vars, op.InternRows(dict, vd.Rows)), e.join)
	}

	// OPTIONAL blocks left-join the stream, selective first.
	sort.SliceStable(optionals, func(i, j int) bool {
		return optionals[i].sq.EstCard < optionals[j].sq.EstCard
	})
	for _, ob := range optionals {
		if accHas(ob.sq) {
			acc = e.newOptionalStream(ctx, acc, ob, dict)
		} else {
			scan := e.newScanStream(ctx, ob.sq, client.PhaseOptional, dict, nil)
			acc = op.LeftJoin(ctx, acc, scan, dict, ob.residual, e.join)
		}
	}

	// Branch filters (including those already pushed — reapplying is
	// harmless and catches cross-subquery predicates), alignment to the
	// branch header, and set semantics.
	acc = op.Filter(acc, dict, br.Filters)
	acc = op.Align(acc, br.Vars())
	return op.Dedup(acc), nil
}
