package core

import (
	"context"
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
// shared-variable tuples to the subquery's (refined) sources, and joins the
// responses back against the block. Downstream operators see joined rows
// after the first block round-trips — the core of SAPE's delay mechanism
// without SAPE's materialization barrier.
//
// The builder guarantees at least one shared variable (a subquery with no
// overlap is planned as an unbound scan under a hash join instead). The
// block rows are an op.Table that the response rows probe, so the join
// follows op's rule: a block row with an unbound shared variable ships it
// as UNDEF and joins every response row that agrees with it on the rest.
// The block's bindings are decoded to terms once, to render the VALUES
// block; the responses are interned into the same dictionary.
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

	optional bool
	cond     []sparql.Expr
	phase    client.Phase
	sh       op.Shared // block rows on the left, response rows on the right

	outBuf [][]uint32
	obi    int
	row    []uint32
	err    error
	closed bool
	srcEOF bool

	ctx     context.Context
	parent  *obs.Span
	span    *obs.Span
	blocks  int
	tuples  int
	rows    int64
	sources []string // refined sources, resolved once on the first block (optional mode: sq.Sources)
}

func (e *Engine) newBoundJoinStream(ctx context.Context, src op.RowStream, sq *Subquery, dict *rdf.Dict) *boundJoinStream {
	return &boundJoinStream{e: e, src: src, sq: sq, dict: dict, phase: client.PhaseBoundJoin, sh: op.Share(src.Vars(), sq.Vars()), ctx: ctx, parent: obs.FromContext(ctx)}
}

// newOptionalStream left-joins an OPTIONAL block that shares variables
// with src: a bound join in optional mode.
func (e *Engine) newOptionalStream(ctx context.Context, src op.RowStream, ob *optionalPlan, dict *rdf.Dict) *boundJoinStream {
	s := e.newBoundJoinStream(ctx, src, ob.sq, dict)
	s.optional, s.cond, s.phase = true, ob.residual, client.PhaseOptional
	s.sources = ob.sq.Sources
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

// joinBlock ships one block's distinct bindings to the sources and joins
// the responses back against the block rows, appending every combined row
// that satisfies cond to outBuf; in optional mode the block rows left
// without an extension follow, zero-extended.
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
	s.blocks++
	table := op.NewTable(s.sh.Left, len(block))
	for _, row := range block {
		table.Add(row)
	}
	extended := make([]bool, len(block))
	if err := s.fetch(block, table, extended); err != nil {
		return err
	}
	for i, row := range block {
		if s.optional && !extended[i] {
			s.outBuf = append(s.outBuf, s.sh.Combine(make([]uint32, len(s.sh.Vars)), row, nil))
		}
	}
	return nil
}

// fetch sends the block's bindings to the sources and joins their
// responses into outBuf, marking the block rows it extends.
func (s *boundJoinStream) fetch(block [][]uint32, table *op.Table, extended []bool) error {
	tuples := op.TermRows(s.dict, op.DistinctTuples(block, s.sh.Left))
	s.tuples += len(tuples)
	if s.sources == nil && !s.optional {
		sources, err := s.e.refineSources(s.ctx, s.sq, s.sh.Names, tuples)
		if err != nil {
			return err
		}
		s.sources = sources
	}

	queryText := s.sq.Query(&sparql.InlineData{Vars: s.sh.Names, Rows: tuples}).String()
	var mu sync.Mutex
	return s.e.pool.ForEachGated(s.ctx, s.sources, s.e.gate(),
		s.e.onRejectDegrade(s.ctx, s.phase, s.sources), func(i int) error {
			name := s.sources[i]
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
	err := s.src.Close()
	if s.span != nil {
		s.span.SetAttr("blocks", s.blocks)
		s.span.SetAttr("bindings", s.tuples)
		s.span.SetAttr("rows", int(s.rows))
		s.span.End()
	}
	return err
}
