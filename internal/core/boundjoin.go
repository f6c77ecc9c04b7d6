package core

import (
	"errors"

	"context"
	"io"
	"strings"
	"sync"

	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/qplan"
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
// The builder guarantees at least one shared variable (a delayed subquery
// with no overlap is planned as an unbound scan plus hash join instead).
// Upstream rows whose shared variables are unbound are dropped, matching
// inner-join key semantics (qplan.JoinKey).
//
// Endpoint responses are decoded inside the pool slot: block tasks append
// to an in-memory buffer under a mutex and never block on a consumer, so
// holding the slot cannot deadlock the pool.
type boundJoinStream struct {
	e   *Engine
	src RowStream
	sq  *Subquery

	vars      []string
	shared    []string
	srcKeyIdx []int // shared positions in src vars
	sqKeyIdx  []int // shared positions in sq vars
	extraIdx  []int // sq positions appended after the src row

	outBuf [][]rdf.Term
	obi    int
	row    []rdf.Term
	err    error
	closed bool
	srcEOF bool

	ctx     context.Context
	parent  *obs.Span
	span    *obs.Span
	blocks  int
	tuples  int
	rows    int64
	refined []string // refined sources, resolved once on the first block
}

func (e *Engine) newBoundJoinStream(ctx context.Context, src RowStream, sq *Subquery) *boundJoinStream {
	s := &boundJoinStream{e: e, src: src, sq: sq, ctx: ctx, parent: obs.FromContext(ctx)}
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

func (s *boundJoinStream) Vars() []string  { return s.vars }
func (s *boundJoinStream) Row() []rdf.Term { return s.row }
func (s *boundJoinStream) Err() error      { return s.err }

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

func (s *boundJoinStream) pullBlock() [][]rdf.Term {
	var block [][]rdf.Term
	for len(block) < s.e.opts.ValuesBlockSize && s.src.Next() {
		block = append(block, copyRow(s.src.Row()))
	}
	return block
}

// evalBlock ships one block's bindings to every refined source and joins
// the responses into outBuf.
func (s *boundJoinStream) evalBlock(block [][]rdf.Term) error {
	if s.span == nil {
		s.span = s.parent.StartChild("bound-join")
		s.span.SetAttr("vars", strings.Join(s.shared, ","))
	}
	s.blocks++

	// Index the block by join key; rows with unbound shared vars drop.
	table := make(map[string][]int, len(block))
	for i, row := range block {
		if key, ok := qplan.JoinKey(row, s.srcKeyIdx); ok {
			table[key] = append(table[key], i)
		}
	}
	if len(table) == 0 {
		return nil
	}
	blockRel := sparql.NewResults(append([]string(nil), s.src.Vars()...))
	blockRel.Rows = block
	tuples := qplan.ProjectDistinct(blockRel, s.shared)
	s.tuples += len(tuples)

	if s.refined == nil {
		sources, err := s.e.refineSources(s.ctx, s.sq, s.shared, tuples)
		if err != nil {
			return err
		}
		s.refined = sources
	}

	queryText := s.sq.Query(&sparql.InlineData{Vars: s.shared, Rows: tuples}).String()
	sqVars := s.sq.Vars()
	var mu sync.Mutex
	return s.e.pool.ForEachGated(s.ctx, s.refined, s.e.gate(),
		s.e.onRejectDegrade(s.ctx, client.PhaseBoundJoin, s.refined), func(i int) error {
			name := s.refined[i]
			sp := s.span.StartChild("batch")
			defer sp.End()
			sp.SetAttr("endpoint", name)
			sp.SetAttr("values", len(tuples))
			rd, err := s.e.streamEndpoint(s.ctx, client.PhaseBoundJoin, name, queryText)
			if err != nil {
				if s.e.degrade(s.ctx, client.PhaseBoundJoin, name, err) {
					sp.SetAttr("degraded", true)
					return nil
				}
				return err
			}
			defer rd.Close()
			idx := varIndexes(sqVars, rd.Vars())
			n := 0
			for {
				resp, err := rd.Read()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					if client.AsEndpointError(err) == nil {
						err = &client.EndpointError{Endpoint: name, Phase: client.PhaseBoundJoin, Err: err}
					}
					if s.e.degrade(s.ctx, client.PhaseBoundJoin, name, err) {
						sp.SetAttr("degraded", true)
						return nil
					}
					return err
				}
				aligned := make([]rdf.Term, len(sqVars))
				for j, t := range resp {
					if k := idx[j]; k >= 0 {
						aligned[k] = t
					}
				}
				key, ok := qplan.JoinKey(aligned, s.sqKeyIdx)
				if !ok {
					continue
				}
				matched := table[key]
				mu.Lock()
				for _, bi := range matched {
					out := make([]rdf.Term, len(s.vars))
					copy(out, block[bi])
					for k, pos := range s.extraIdx {
						out[len(block[bi])+k] = aligned[pos]
					}
					s.outBuf = append(s.outBuf, out)
				}
				mu.Unlock()
				n += len(matched)
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

// leftJoinStream applies one OPTIONAL block to the stream flowing through
// it, blockwise: each block of upstream rows is extended by the optional
// subquery's solutions (bound to the block's shared variables when there
// are any), with unmatched rows kept and zero-extended — streaming
// left-join semantics identical to qplan.LeftJoin over the whole relation,
// which it delegates to per block.
type leftJoinStream struct {
	e   *Engine
	src RowStream
	ob  *optionalPlan

	vars   []string
	shared []string

	unboundRel *sparql.Results // cached optional relation when evaluated unbound

	outBuf [][]rdf.Term
	obi    int
	row    []rdf.Term
	err    error
	closed bool
	srcEOF bool

	ctx    context.Context
	parent *obs.Span
	span   *obs.Span
	rows   int64
}

func (e *Engine) newLeftJoinStream(ctx context.Context, src RowStream, ob *optionalPlan) *leftJoinStream {
	s := &leftJoinStream{e: e, src: src, ob: ob, ctx: ctx, parent: obs.FromContext(ctx)}
	s.vars = append([]string(nil), src.Vars()...)
	srcPos := make(map[string]bool, len(s.vars))
	for _, v := range s.vars {
		srcPos[v] = true
	}
	for _, v := range ob.sq.Vars() {
		if srcPos[v] {
			s.shared = append(s.shared, v)
		} else {
			s.vars = append(s.vars, v)
		}
	}
	return s
}

func (s *leftJoinStream) Vars() []string  { return s.vars }
func (s *leftJoinStream) Row() []rdf.Term { return s.row }
func (s *leftJoinStream) Err() error      { return s.err }

func (s *leftJoinStream) Next() bool {
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
		var block [][]rdf.Term
		for len(block) < s.e.opts.ValuesBlockSize && s.src.Next() {
			block = append(block, copyRow(s.src.Row()))
		}
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

func (s *leftJoinStream) evalBlock(block [][]rdf.Term) error {
	if s.span == nil {
		s.span = s.parent.StartChild("optional")
		s.span.SetAttr("sources", strings.Join(s.ob.sq.Sources, ","))
	}
	// No relevant endpoint: the optional never extends any row.
	if len(s.ob.sq.Sources) == 0 {
		for _, row := range block {
			out := make([]rdf.Term, len(s.vars))
			copy(out, row)
			s.outBuf = append(s.outBuf, out)
		}
		return nil
	}
	blockRel := sparql.NewResults(append([]string(nil), s.src.Vars()...))
	blockRel.Rows = block

	rel, err := s.optionalRel(blockRel)
	if err != nil {
		return err
	}
	joined := qplan.LeftJoin(blockRel, rel)
	// LeftJoin's output vars are blockRel.Vars + rel extras, the same
	// construction as s.vars, so rows carry over positionally.
	s.outBuf = append(s.outBuf, joined.Rows...)
	return nil
}

// optionalRel returns the optional subquery's relation for one block:
// bound to the block's shared-variable tuples when the block binds any,
// otherwise the unbound relation evaluated once and cached.
func (s *leftJoinStream) optionalRel(blockRel *sparql.Results) (*sparql.Results, error) {
	sq := s.ob.sq
	tuples := [][]rdf.Term(nil)
	if len(s.shared) > 0 {
		tuples = qplan.ProjectDistinct(blockRel, s.shared)
	}
	if len(s.shared) == 0 {
		if s.unboundRel == nil {
			rel, err := s.drainUnbound()
			if err != nil {
				return nil, err
			}
			s.unboundRel = rel
		}
		return s.unboundRel, nil
	}
	if len(tuples) == 0 {
		return qplan.EmptyRelation(sq.Vars()), nil
	}
	block := sparql.InlineData{Vars: s.shared, Rows: tuples}
	partial := make([]*sparql.Results, len(sq.Sources))
	err := s.e.pool.ForEachGated(s.ctx, sq.Sources, s.e.gate(),
		s.e.onRejectDegrade(s.ctx, client.PhaseOptional, sq.Sources), func(i int) error {
			res, err := s.e.queryEndpoint(s.ctx, client.PhaseOptional, sq.Sources[i], sq.Query(&block).String())
			if err != nil {
				if s.e.degrade(s.ctx, client.PhaseOptional, sq.Sources[i], err) {
					return nil
				}
				return err
			}
			partial[i] = res
			return nil
		})
	if err != nil {
		return nil, err
	}
	rel := qplan.EmptyRelation(sq.Vars())
	for _, p := range partial {
		if p != nil {
			rel = qplan.UnionRelations(rel, p)
		}
	}
	rel.Rows = sparql.DistinctRows(rel.Rows)
	return qplan.ApplyFilters(rel, s.ob.residual), nil
}

// drainUnbound evaluates the optional subquery unbound at all its sources
// through a scan stream, materializing the (deduplicated, filtered)
// relation once for reuse across blocks.
func (s *leftJoinStream) drainUnbound() (*sparql.Results, error) {
	scan := s.e.newScanStream(s.ctx, s.ob.sq, client.PhaseOptional, nil)
	rel := sparql.NewResults(append([]string(nil), scan.Vars()...))
	//lint:lusail-vet budgetbound -- each upstream response is capped by client.MaxResponseBytes, so the union is bounded by sources x cap
	for scan.Next() {
		rel.Rows = append(rel.Rows, copyRow(scan.Row()))
	}
	err := scan.Err()
	if cerr := scan.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rel.Rows = sparql.DistinctRows(rel.Rows)
	return qplan.ApplyFilters(rel, s.ob.residual), nil
}

func (s *leftJoinStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.src.Close()
	if s.span != nil {
		s.span.SetAttr("rows", int(s.rows))
		s.span.End()
	}
	return err
}
