package core

import (
	"context"
	"math"
	"strings"
	"sync"

	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// boundJoinStream evaluates a delayed subquery as a pipelined bound join:
// instead of waiting for the complete upstream relation, it pulls one
// VALUES-block worth of upstream rows at a time, ships the block's distinct
// shared-variable tuples to the subquery's sources (refined per block), and
// joins the responses back against the block. Downstream operators see
// joined rows after the first block round-trips — the core of SAPE's delay
// mechanism without SAPE's materialization barrier.
//
// The builder guarantees at least one shared variable (a subquery with no
// overlap is planned as an unbound scan under a hash join instead). The
// block rows are an op.Table that the response rows probe, so the join
// follows op's rule: a block row with an unbound shared variable ships it
// as UNDEF and joins every response row that agrees with it on the rest.
// The block's bindings are decoded to terms once, to render the VALUES
// block; the responses are interned into the same dictionary.
//
// Bindings select only while they are fewer than the join tuples the
// subquery can answer. Its limit D is the smaller of EstCard and the
// product of C(sq, v) over the shared variables; once the bindings
// shipped so far plus the next block's exceed D, the join would return
// about the whole subquery, which one unbound request per source returns.
// So before shipping a block the join switches to that scan when it would
// need more than one block — a block has been shipped, or another
// upstream row follows this full one — and the bindings exceed D: the
// unshipped rows, this block and the rest of the upstream, probe an
// op.HashJoin whose build side is the subquery's scan. Each upstream row
// is joined exactly once, in a shipped block or against the scan, and
// upstream rows bind every shared variable, as they come from mandatory
// subqueries. A one-block join never switches: it costs the scan's
// requests and ships at most its rows. Nor do joins with an unknown
// cardinality or in optional mode.
//
// In optional mode the stream is an OPTIONAL block's left join: a block
// row without a surviving extension — a combined row on which the block's
// residual filters (cond) hold — passes through zero-extended, sources are
// not refined, and the work is traced as one "optional" span without
// per-request spans.
//
// Endpoint responses are decoded inside the pool slot: block tasks append
// to an in-memory buffer under a mutex and never block on a consumer, so
// holding the slot cannot deadlock the pool.
type boundJoinStream struct {
	e    *Engine
	src  op.RowStream
	sq   *Subquery
	dict *rdf.Dict
	prof *Profile // the switched scan's SubqueryStats sink (may be nil)

	optional bool
	cond     []sparql.Expr
	phase    client.Phase
	sh       op.Shared // block rows on the left, response rows on the right
	limit    float64   // D; +Inf never switches

	outBuf  [][]uint32
	obi     int
	peeked  []uint32     // an upstream row pulled to see that a full block is not the last
	unbound op.RowStream // after the switch: the unshipped rows joined against the scan
	row     []uint32
	err     error
	closed  bool
	srcEOF  bool

	ctx    context.Context
	parent *obs.Span
	span   *obs.Span
	blocks int
	tuples int
	rows   int64
}

func (e *Engine) newBoundJoinStream(ctx context.Context, src op.RowStream, sq *Subquery, dict *rdf.Dict, prof *Profile) *boundJoinStream {
	s := &boundJoinStream{e: e, src: src, sq: sq, dict: dict, prof: prof, phase: client.PhaseBoundJoin, sh: op.Share(src.Vars(), sq.Vars()), limit: math.Inf(1), ctx: ctx, parent: obs.FromContext(ctx)}
	if sq.CardKnown && sq.varCards != nil {
		tuples := 1.0
		for _, c := range s.sh.Right {
			tuples *= sq.varCards[c]
		}
		s.limit = min(sq.EstCard, tuples)
	}
	return s
}

// newOptionalStream left-joins an OPTIONAL block that shares variables
// with src: a bound join in optional mode.
func (e *Engine) newOptionalStream(ctx context.Context, src op.RowStream, ob *optionalPlan, dict *rdf.Dict) *boundJoinStream {
	s := e.newBoundJoinStream(ctx, src, ob.sq, dict, nil)
	s.optional, s.cond, s.phase, s.limit = true, ob.residual, client.PhaseOptional, math.Inf(1)
	return s
}

func (s *boundJoinStream) Vars() []string { return s.sh.Vars }
func (s *boundJoinStream) Row() []uint32  { return s.row }
func (s *boundJoinStream) Err() error     { return s.err }

func (s *boundJoinStream) Next() bool {
	if s.closed || s.err != nil {
		return false
	}
	for {
		if s.unbound != nil {
			if !s.unbound.Next() {
				s.err = s.unbound.Err()
				return false
			}
			s.row = s.unbound.Row()
			s.rows++
			return true
		}
		if s.obi < len(s.outBuf) {
			s.row = s.outBuf[s.obi]
			s.obi++
			s.rows++
			return true
		}
		s.outBuf, s.obi = s.outBuf[:0], 0
		if s.srcEOF {
			return false
		}
		var block [][]uint32
		if s.peeked != nil {
			block, s.peeked = append(block, s.peeked), nil
		}
		for len(block) < s.e.opts.ValuesBlockSize && s.src.Next() {
			block = append(block, op.CopyRow(s.src.Row()))
		}
		if len(block) == 0 {
			s.srcEOF, s.err = true, s.src.Err()
			return false
		}
		if s.err = s.joinBlock(block); s.err != nil {
			return false
		}
	}
}

// more reports whether another upstream row follows, keeping it for the
// next block.
func (s *boundJoinStream) more() bool {
	if !s.src.Next() {
		return false
	}
	s.peeked = op.CopyRow(s.src.Row())
	return true
}

// joinBlock ships one block's distinct bindings to the sources and joins
// the responses back against the block rows, appending every combined row
// that satisfies cond to outBuf; in optional mode the block rows left
// without an extension follow, zero-extended. When the bindings can no
// longer select, it switches the join to an unbound scan instead.
func (s *boundJoinStream) joinBlock(block [][]uint32) error {
	if s.span == nil {
		if s.optional {
			s.span = s.parent.StartChild("optional")
			s.span.SetAttr("sources", strings.Join(s.sq.Sources, ","))
		} else {
			s.span = s.parent.StartChild("bound-join")
			s.span.SetAttr("vars", strings.Join(s.sh.Names, ","))
		}
	}
	tuples := op.DistinctTuples(block, s.sh.Left)
	if bindings := s.tuples + len(tuples); float64(bindings) > s.limit &&
		(s.blocks > 0 || len(block) == s.e.opts.ValuesBlockSize && s.more()) {
		s.switchToScan(block, bindings)
		return nil
	}
	s.blocks++
	table := op.NewTable(s.sh.Left, len(block))
	for _, row := range block {
		table.Add(row)
	}
	extended := make([]bool, len(block))
	if err := s.fetch(op.TermRows(s.dict, tuples), table, extended); err != nil {
		return err
	}
	for i, row := range block {
		if s.optional && !extended[i] {
			s.outBuf = append(s.outBuf, s.sh.Combine(make([]uint32, len(s.sh.Vars)), row, nil))
		}
	}
	return nil
}

// switchToScan stops shipping bindings: the unshipped rows — block, the
// row peeked at, then the rest of the upstream — probe a hash join whose
// build side is the subquery's unbound scan, traced under the bound
// join's span.
func (s *boundJoinStream) switchToScan(block [][]uint32, bindings int) {
	s.span.SetAttr("unbound", true)
	s.span.SetAttr("switch_bindings", bindings)
	s.span.SetAttr("limit", int(s.limit))
	if s.peeked != nil {
		block, s.peeked = append(block, s.peeked), nil
	}
	ctx := obs.ContextWithSpan(s.ctx, s.span)
	scan := s.e.newScanStream(ctx, s.sq, client.PhaseSubquery, s.dict, s.prof)
	s.unbound = op.HashJoin(ctx, op.Union(op.NewSlice(s.src.Vars(), block), s.src), scan, s.e.join)
}

// fetch sends the block's distinct bindings to the sources and joins
// their responses into outBuf, marking the block rows it extends. Outside
// optional mode the sources are refined by this block's own bindings: a
// later block's bindings may live at an endpoint an earlier block's ASK
// pruned.
func (s *boundJoinStream) fetch(tuples [][]rdf.Term, table *op.Table, extended []bool) error {
	s.tuples += len(tuples)
	sources := s.sq.Sources
	if !s.optional {
		var err error
		if sources, err = s.e.refineSources(s.ctx, s.sq, s.sh.Names, tuples); err != nil {
			return err
		}
	}

	queryText := s.sq.Query(&sparql.InlineData{Vars: s.sh.Names, Rows: tuples}).String()
	var mu sync.Mutex
	return s.e.pool.ForEachGated(s.ctx, sources, s.e.gate(),
		s.e.onRejectDegrade(s.ctx, s.phase, sources), func(i int) error {
			name := sources[i]
			var sp *obs.Span
			if !s.optional {
				sp = s.span.StartChild("batch")
				defer sp.End()
				sp.SetAttr("endpoint", name)
				sp.SetAttr("values", len(tuples))
			}
			rd, err := s.e.streamEndpoint(s.ctx, s.phase, name, queryText)
			if err != nil {
				if s.e.degrade(s.ctx, s.phase, name, err) {
					sp.SetAttr("degraded", true)
					return nil
				}
				return err
			}
			cond := op.NewCond(s.dict, s.sh.Vars, s.cond)
			var p op.Probe
			n := 0
			degraded, err := s.e.readRows(s.ctx, s.phase, name, rd, s.dict, s.sq.Vars(), func(resp []uint32) bool {
				for _, bi := range table.Matches(resp, s.sh.Right, &p) {
					out := s.sh.Combine(make([]uint32, len(s.sh.Vars)), table.Row(bi), resp)
					if !cond.Holds(out) {
						continue
					}
					mu.Lock()
					s.outBuf = append(s.outBuf, out)
					extended[bi] = true
					mu.Unlock()
					n++
				}
				return true
			})
			if degraded {
				sp.SetAttr("degraded", true)
				return nil
			}
			sp.SetAttr("rows", n)
			return err
		})
}

func (s *boundJoinStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.unbound != nil {
		err = s.unbound.Close() // closes the upstream too
	} else {
		err = s.src.Close()
	}
	if s.span != nil {
		s.span.SetAttr("blocks", s.blocks)
		s.span.SetAttr("bindings", s.tuples)
		s.span.SetAttr("rows", int(s.rows))
		s.span.End()
	}
	return err
}
