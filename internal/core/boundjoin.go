package core

import (
	"errors"

	"context"
	"io"
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
// overlap is planned as an unbound scan under a hash join instead).
// Upstream rows whose shared variables are unbound match nothing, as in
// op.AppendKey. The block's bindings are decoded to terms once, to render
// the VALUES block; the responses are interned into the same dictionary.
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

	vars      []string
	shared    []string
	srcKeyIdx []int // shared positions in src vars
	sqKeyIdx  []int // shared positions in sq vars
	extraIdx  []int // sq positions appended after the src row

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
	s := &boundJoinStream{e: e, src: src, sq: sq, dict: dict, phase: client.PhaseBoundJoin, ctx: ctx, parent: obs.FromContext(ctx)}
	s.vars = append([]string(nil), src.Vars()...)
	srcPos := make(map[string]int, len(s.vars))
	for i, v := range s.vars {
		srcPos[v] = i
	}
	for j, v := range sq.Vars() {
		if i, ok := srcPos[v]; ok {
			s.shared = append(s.shared, v)
			s.srcKeyIdx = append(s.srcKeyIdx, i)
			s.sqKeyIdx = append(s.sqKeyIdx, j)
		} else {
			s.vars = append(s.vars, v)
			s.extraIdx = append(s.extraIdx, j)
		}
	}
	return s
}

// newOptionalStream left-joins an OPTIONAL block that shares variables
// with src: a bound join in optional mode.
func (e *Engine) newOptionalStream(ctx context.Context, src op.RowStream, ob *optionalPlan, dict *rdf.Dict) *boundJoinStream {
	s := e.newBoundJoinStream(ctx, src, ob.sq, dict)
	s.optional, s.cond, s.phase = true, ob.residual, client.PhaseOptional
	s.sources = ob.sq.Sources
	return s
}

func (s *boundJoinStream) Vars() []string { return s.vars }
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
		block := s.pullBlock()
		if len(block) == 0 {
			s.srcEOF = true
			if err := s.src.Err(); err != nil {
				s.err = err
			}
			return false
		}
		if err := s.evalBlock(block); err != nil {
			s.err = err
			return false
		}
	}
}

func (s *boundJoinStream) pullBlock() [][]uint32 {
	var block [][]uint32
	for len(block) < s.e.opts.ValuesBlockSize && s.src.Next() {
		block = append(block, op.CopyRow(s.src.Row()))
	}
	return block
}

// evalBlock ships one block's bindings to every source and joins the
// responses into outBuf; in optional mode the block rows left without an
// extension follow, zero-extended.
func (s *boundJoinStream) evalBlock(block [][]uint32) error {
	if s.span == nil {
		if s.optional {
			s.span = s.parent.StartChild("optional")
			s.span.SetAttr("sources", strings.Join(s.sq.Sources, ","))
		} else {
			s.span = s.parent.StartChild("bound-join")
			s.span.SetAttr("vars", strings.Join(s.shared, ","))
		}
	}
	s.blocks++

	// Index the block by join key; rows with unbound shared vars match
	// nothing.
	table := make(map[string][]int, len(block))
	var key []byte
	for i, row := range block {
		var ok bool
		if key, ok = op.AppendKey(key[:0], row, s.srcKeyIdx); ok {
			table[string(key)] = append(table[string(key)], i)
		}
	}
	extended := make([]bool, len(block))
	if len(table) > 0 {
		if err := s.fetchBlock(block, table, extended); err != nil {
			return err
		}
	}
	if s.optional {
		for i, row := range block {
			if !extended[i] {
				out := make([]uint32, len(s.vars))
				copy(out, row)
				s.outBuf = append(s.outBuf, out)
			}
		}
	}
	return nil
}

// fetchBlock sends the block's distinct bindings to the sources and
// appends every combined row that satisfies cond to outBuf, marking the
// block rows it extends.
func (s *boundJoinStream) fetchBlock(block [][]uint32, table map[string][]int, extended []bool) error {
	tuples := op.TermRows(s.dict, op.DistinctTuples(block, s.srcKeyIdx))
	s.tuples += len(tuples)
	if s.sources == nil && !s.optional {
		sources, err := s.e.refineSources(s.ctx, s.sq, s.shared, tuples)
		if err != nil {
			return err
		}
		s.sources = sources
	}

	queryText := s.sq.Query(&sparql.InlineData{Vars: s.shared, Rows: tuples}).String()
	sqVars := s.sq.Vars()
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
			defer rd.Close()
			idx := op.VarIndexes(sqVars, rd.Vars())
			ids := sparql.IDsOf(rd)
			cond := op.NewCond(s.dict, s.vars, s.cond)
			aligned := make([]uint32, len(sqVars))
			var key []byte
			n := 0
			for {
				resp, err := ids.ReadIDs(s.dict)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					if client.AsEndpointError(err) == nil {
						err = &client.EndpointError{Endpoint: name, Phase: s.phase, Err: err}
					}
					if s.e.degrade(s.ctx, s.phase, name, err) {
						sp.SetAttr("degraded", true)
						return nil
					}
					return err
				}
				clear(aligned)
				for j, id := range resp {
					if k := idx[j]; k >= 0 {
						aligned[k] = id
					}
				}
				var ok bool
				if key, ok = op.AppendKey(key[:0], aligned, s.sqKeyIdx); !ok {
					continue
				}
				for _, bi := range table[string(key)] {
					out := make([]uint32, len(s.vars))
					copy(out, block[bi])
					for k, pos := range s.extraIdx {
						out[len(block[bi])+k] = aligned[pos]
					}
					if !cond.Holds(out) {
						continue
					}
					mu.Lock()
					s.outBuf = append(s.outBuf, out)
					extended[bi] = true
					mu.Unlock()
					n++
				}
			}
			sp.SetAttr("rows", n)
			return nil
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
