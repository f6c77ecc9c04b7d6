package core

import (
	"context"
	"math"
	"slices"

	"lusail/internal/client"
	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
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
// stream, each of which runs as an unbound scan under a hash join instead
// once its bindings outnumber what its subquery can answer; a delayed
// subquery sharing no variable with the accumulated stream falls back to
// an unbound scan under a (cross) hash join.
// Non-delayed scans and delayed bound joins interleave by connectivity: a
// delayed subquery often bridges two scans that share no variable with
// each other, and bound-joining it first keeps their cross product from
// ever materializing (LUBM Q4's shape). A subquery that shares no
// variable with the stream but is linked to it by a residual key equality
// filter (sparql.KeyEquality: STR(?a) = STR(?b), sameTerm) counts as
// connected and hash-joins keyed on that filter, which is applied there.
// VALUES blocks join as in-memory build sides, OPTIONAL blocks as left
// joins (selective first where they commute) — a bound join in optional
// mode when the block shares a variable with the stream, else a left hash
// join over an unbound scan, or over its parts' joined scans when the
// block is split — and the tail applies the residual filters
// that remain, aligns to the branch's variables, and deduplicates. Every
// operator's rows are ids in dict.
func (e *Engine) branchStream(ctx context.Context, pb *plannedBranch, dict *rdf.Dict, prof *Profile) op.RowStream {
	if pb.empty {
		return op.NewSlice(pb.br.Vars(), nil)
	}
	br := pb.br
	sqs := cloneSubqueries(pb.sqs)
	optionals := slices.Clone(pb.optionals)
	residual := slices.Clone(pb.residual)

	e.delay(sqs)
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
	} else {
		// A branch without mandatory subqueries (VALUES/OPTIONAL only)
		// starts from the single empty solution.
		acc = op.NewSlice(nil, [][]uint32{{}})
	}

	accHas := func(sq *Subquery) bool { return slices.ContainsFunc(acc.Vars(), sq.HasVar) }
	// keyFilter returns the index in residual of a key equality filter
	// that links the stream to sq, which share no variable: one of its
	// variables is the stream's and the other sq's. It returns -1 when
	// there is none.
	keyFilter := func(sq *Subquery) int {
		vars := acc.Vars()
		return slices.IndexFunc(residual, func(f sparql.Expr) bool {
			x, y, _, ok := sparql.KeyEquality(f)
			return ok && (slices.Contains(vars, x) && sq.HasVar(y) || slices.Contains(vars, y) && sq.HasVar(x))
		})
	}
	linked := func(sq *Subquery) bool { return accHas(sq) || keyFilter(sq) >= 0 }
	// peek finds the best next subquery in sqs without removing it:
	// linked to the stream first, most selective among those (or among
	// all when nothing is linked). take commits the choice.
	peek := func(sqs []*Subquery) (int, bool) {
		best, bestConn := -1, false
		for i, sq := range sqs {
			conn := linked(sq)
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
	// join hash-joins sq's unbound scan into the stream: on their shared
	// variables, else keyed on a residual filter that links them, which
	// the keyed join applies and the tail then no longer needs, else as a
	// cross product.
	join := func(sq *Subquery) {
		build := e.newScanStream(ctx, sq, client.PhaseSubquery, dict, prof)
		if !accHas(sq) {
			if k := keyFilter(sq); k >= 0 {
				acc = op.KeyedJoin(ctx, acc, build, dict, residual[k], e.join)
				residual = slices.Delete(residual, k, k+1)
				return
			}
		}
		acc = op.HashJoin(ctx, acc, build, e.join)
	}

	// Remaining subqueries join greedily by connectivity. A linked
	// non-delayed scan is the cheapest next step (an in-memory build side
	// that must be fetched regardless); otherwise a delayed subquery that
	// shares a variable joins as a pipelined bound join — often bridging
	// scans that share no variable with each other, so the cross join
	// below stays a true last resort. Each join widens the stream's
	// variable set, which can connect subqueries that were disconnected a
	// step earlier.
	for len(nonDelayed) > 0 || len(delayed) > 0 {
		ni, nConn := peek(nonDelayed)
		di, dConn := peek(delayed)
		var sq *Subquery
		switch {
		case ni >= 0 && (nConn || di < 0 || !dConn):
			// A non-delayed scan joins whenever one is linked, and
			// cross-joins only when no delayed subquery could bridge
			// the gap first.
			sq, nonDelayed = take(nonDelayed, ni)
			join(sq)
		case dConn && accHas(delayed[di]):
			sq, delayed = take(delayed, di)
			acc = e.newBoundJoinStream(ctx, acc, sq, dict, prof)
		default:
			// The delayed subquery shares no variable with the stream:
			// degrade to an unbound scan under a hash join, keyed when
			// a filter links it, else a cross join.
			sq, delayed = take(delayed, di)
			join(sq)
		}
	}

	// VALUES blocks from the query text join as in-memory build sides.
	// pushDown rendered each into the subqueries that bind all of its
	// variables, which only cut their scans; this join alone decides how
	// UNDEF cells match, and op.Values keeps the block's multiplicity.
	for i, vd := range br.Values {
		acc = op.HashJoin(ctx, acc, op.Values(dict, vd, i), e.join)
	}

	// OPTIONAL blocks left-join the stream.
	for _, ob := range orderOptionals(optionals, pb.sqs) {
		switch {
		case ob.parts != nil:
			// A split block: its parts' scans join, and the join
			// left-joins the stream.
			block := op.RowStream(e.newScanStream(ctx, ob.parts[0], client.PhaseOptional, dict, nil))
			for _, part := range ob.parts[1:] {
				block = op.HashJoin(ctx, block, e.newScanStream(ctx, part, client.PhaseOptional, dict, nil), e.join)
			}
			acc = op.LeftJoin(ctx, acc, block, dict, ob.residual, e.join)
		case accHas(ob.sq):
			acc = e.newOptionalStream(ctx, acc, ob, dict)
		default:
			scan := e.newScanStream(ctx, ob.sq, client.PhaseOptional, dict, nil)
			acc = op.LeftJoin(ctx, acc, scan, dict, ob.residual, e.join)
		}
	}

	// The residual filters — those no subquery enforced and no keyed join
	// applied — then set semantics, then alignment to the branch header.
	// This Dedup is the engine's one statement of set semantics: the
	// subqueries ship plain SELECTs, so the same triple held at two
	// endpoints reaches the branch twice, and only here, over every
	// branch variable and op.Values' hidden columns, is it seen as a
	// duplicate.
	acc = op.Filter(acc, dict, residual)
	return op.Align(op.Dedup(acc), br.Vars())
}

// orderOptionals orders OPTIONAL blocks selective first, except that a
// block never moves ahead of an earlier one it shares a variable with that
// no mandatory subquery binds: which of the two binds it first decides
// what the other can join, so they do not commute.
func orderOptionals(obs []*optionalPlan, mandatory []*Subquery) []*optionalPlan {
	vars := func(ob *optionalPlan) []string {
		vs := ob.sq.Vars()
		for _, f := range ob.residual {
			vs = append(vs, sparql.ExprVars(f)...)
		}
		return vs
	}
	before := func(a, b *optionalPlan) bool { // a must stay ahead of b
		return slices.ContainsFunc(vars(a), func(v string) bool {
			return slices.Contains(vars(b), v) && !slices.ContainsFunc(mandatory, func(sq *Subquery) bool { return sq.HasVar(v) })
		})
	}
	out := make([]*optionalPlan, 0, len(obs))
	for len(obs) > 0 {
		best := 0
		for i, ob := range obs {
			if ob.sq.EstCard < obs[best].sq.EstCard && !slices.ContainsFunc(obs[:i], func(a *optionalPlan) bool { return before(a, ob) }) {
				best = i
			}
		}
		out = append(out, obs[best])
		obs = slices.Delete(obs, best, best+1)
	}
	return out
}
