package core

import (
	"context"
	"math"
	"slices"
	"strings"

	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// boundJoinStream evaluates a delayed subquery as a pipelined bound join:
// instead of waiting for the complete upstream relation, it pulls one
// VALUES-block worth of upstream rows at a time, ships the block's distinct
// shared-variable tuples to the subquery's sources (refined per block) as a
// scan with the block's VALUES attached, and joins the scan's rows back
// against the block as they arrive — the core of SAPE's delay mechanism
// without SAPE's materialization barrier, holding one block at a time.
//
// The builder guarantees at least one shared variable (a subquery with no
// overlap is planned as an unbound scan under a hash join instead). The
// block rows are an op.Table that the scan rows probe, so the join
// follows op's rule: a block row with an unbound shared variable ships it
// as UNDEF and joins every scan row that agrees with it on the rest.
// The block's bindings are decoded to terms once, to render the VALUES
// block; the scan interns the responses into the same dictionary.
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
// In optional mode the stream is an OPTIONAL block's left join: once a
// block's scan has drained, each block row without a surviving extension
// — a combined row on which the block's residual filters (cond) hold —
// passes through zero-extended; sources are not refined, and the work is
// traced as one "optional" span without batch spans.
type boundJoinStream struct {
	e    *Engine
	src  op.RowStream
	sq   *Subquery
	dict *rdf.Dict
	prof *Profile // the switched scan's SubqueryStats sink (may be nil)

	optional bool
	cond     *op.Cond // optional mode's residual filters; nil holds
	phase    client.Phase
	sh       op.Shared // block rows on the left, scan rows on the right
	limit    float64   // D; +Inf never switches

	table    *op.Table   // the current block, indexed on its shared columns
	extended []bool      // the block rows a scan row extended
	scan     *scanStream // the block's bindings shipped (nil once drained)
	batch    *obs.Span
	hits     []int32 // the block rows the scan's current row joins
	probe    op.Probe
	tail     int // optional mode: the next block row to pass through

	peeked  []uint32     // an upstream row pulled to see that a full block is not the last
	unbound op.RowStream // after the switch: the unshipped rows joined against the scan
	out     []uint32     // the row the join combines, valid until the next Next
	row     []uint32
	err     error
	closed  bool

	ctx    context.Context
	parent *obs.Span
	span   *obs.Span
	blocks int
	tuples int
	rows   int64
}

func (e *Engine) newBoundJoinStream(ctx context.Context, src op.RowStream, sq *Subquery, dict *rdf.Dict, prof *Profile) *boundJoinStream {
	s := &boundJoinStream{e: e, src: src, sq: sq, dict: dict, prof: prof, phase: client.PhaseBoundJoin, sh: op.Share(src.Vars(), sq.Vars()), limit: math.Inf(1), ctx: ctx, parent: obs.FromContext(ctx)}
	s.out = make([]uint32, len(s.sh.Vars))
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
	s.optional, s.phase, s.limit = true, client.PhaseOptional, math.Inf(1)
	s.cond = op.NewCond(dict, s.sh.Vars, ob.residual)
	return s
}

func (s *boundJoinStream) Vars() []string { return s.sh.Vars }
func (s *boundJoinStream) Row() []uint32  { return s.row }
func (s *boundJoinStream) Err() error     { return s.err }

// Next yields the block's joined rows as its scan delivers them, then in
// optional mode the block rows left unextended, then the next block's.
func (s *boundJoinStream) Next() bool {
	if s.closed || s.err != nil {
		return false
	}
	for {
		switch {
		case s.unbound != nil:
			if !s.unbound.Next() {
				s.err = s.unbound.Err()
				return false
			}
			s.row = s.unbound.Row()
		case s.scan != nil:
			if !s.join() {
				s.err = s.scan.Err()
				s.closeScan()
				if s.err != nil {
					return false
				}
				continue
			}
		case s.optional && s.tail < len(s.extended):
			i := s.tail
			s.tail++
			if s.extended[i] {
				continue
			}
			clear(s.out)
			s.row = s.sh.Combine(s.out, s.table.Row(int32(i)), nil)
		default:
			if !s.nextBlock() {
				return false
			}
			continue
		}
		s.rows++
		return true
	}
}

// join advances to the next scan row and block row combined on which cond
// holds, marking the block row extended; false once the scan is done.
func (s *boundJoinStream) join() bool {
	for {
		for len(s.hits) > 0 {
			bi := s.hits[0]
			s.hits = s.hits[1:]
			s.row = s.sh.Combine(s.out, s.table.Row(bi), s.scan.Row())
			if s.cond.Holds(s.row) {
				s.extended[bi] = true
				return true
			}
		}
		if !s.scan.Next() {
			return false
		}
		s.hits = s.table.Matches(s.scan.Row(), s.sh.Right, &s.probe)
	}
}

// closeScan closes the block's scan and ends its batch span.
func (s *boundJoinStream) closeScan() {
	s.scan.Close()
	s.batch.End()
	s.scan, s.batch, s.hits = nil, nil, nil
}

// nextBlock pulls the next upstream block and opens its scan, over the
// sources its own bindings refine outside optional mode (a later block's
// may live at an endpoint an earlier block's ASK pruned); a block no
// source answers is shipped nowhere. It switches to an unbound scan
// instead once the bindings can no longer select, and reports false at
// the upstream's end or on an error.
func (s *boundJoinStream) nextBlock() bool {
	table := op.NewTable(s.sh.Left, 0)
	if s.peeked != nil {
		table.Add(s.peeked)
		s.peeked = nil
	}
	for table.Len() < s.e.opts.ValuesBlockSize && s.src.Next() {
		table.Add(s.src.Row())
	}
	if table.Len() == 0 {
		s.err = s.src.Err()
		return false
	}
	block := make([][]uint32, table.Len())
	for i := range block {
		block[i] = table.Row(int32(i))
	}
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
		return true
	}
	s.blocks++
	s.tuples += len(tuples)
	values := sparql.InlineData{Vars: s.sh.Names, Rows: op.TermRows(s.dict, tuples)}
	sources := s.sq.Sources
	if !s.optional {
		if sources, s.err = s.e.refineSources(s.ctx, s.sq, s.sh.Names, values.Rows); s.err != nil {
			return false
		}
	}
	s.table, s.extended, s.tail = table, make([]bool, len(block)), 0
	if len(sources) == 0 {
		return true
	}
	blockSq := *s.sq
	blockSq.Values = append(slices.Clip(s.sq.Values), values)
	blockSq.Sources = sources
	ctx := obs.ContextWithSpan(s.ctx, s.span)
	if !s.optional {
		s.batch = s.span.StartChild("batch")
		s.batch.SetAttr("values", len(tuples))
		s.batch.SetAttr("endpoints", len(sources))
		ctx = obs.ContextWithSpan(s.ctx, s.batch)
	}
	s.scan = s.e.newScanStream(ctx, &blockSq, s.phase, s.dict, nil)
	return true
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

func (s *boundJoinStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.scan != nil {
		s.closeScan()
	}
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
