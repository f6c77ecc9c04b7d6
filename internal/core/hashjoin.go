package core

import (
	"errors"
	"io"

	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"lusail/internal/diskstore"
	"lusail/internal/obs"
	"lusail/internal/qplan"
	"lusail/internal/rdf"
)

// Probe parallelism (the paper's parallel in-memory hash join, Section
// 4.2): once the build table holds at least parallelProbeMin rows, probe
// rows are pulled in batches and probed across the pool in chunks.
const (
	parallelProbeMin  = 4096
	probeBatchRows    = 512
	probeChunkMinRows = 64
)

// hashJoinStream inner-joins two streams with an incremental build/probe
// hash join: the build side is consumed into a hash table on first Next,
// then probe rows stream through one at a time (or in parallel batches
// against a large table), each emitting its matches immediately. Memory is
// bounded by the build side, never the output: a build side whose table
// exceeds the engine's JoinSpillBytes budget spills both sides to disk
// through the extsort machinery and the join finishes as a sort-merge over
// the spilled runs (grace-join style: first-row latency is traded for
// bounded memory).
//
// With no shared variables the operator degenerates to a cross product and
// keeps the build side in memory — a cross product cannot be keyed for a
// merge join, so it cannot spill. The build side is still held to the
// JoinSpillBytes budget: a remote endpoint must not be able to grow the
// build side without bound, so exceeding the budget fails the join
// instead. Such joins only arise between genuinely disjoint query
// components, which are small in practice.
//
// The spill path rides the sorter's record deduplication: duplicate
// (key,row) records collapse. That is sound here because every branch
// pipeline ends in a distinct-rows operator, so join multiplicities never
// reach the result.
type hashJoinStream struct {
	e     *Engine
	probe RowStream
	build RowStream

	vars        []string
	shared      []string
	probeKeyIdx []int
	buildKeyIdx []int
	buildExtra  []int // build columns appended after the probe row

	started bool
	table   map[string][][]rdf.Term
	cross   [][]rdf.Term
	sj      *spillJoin

	buildRows  int64
	buildBytes int64
	spilled    bool

	outBuf []([]rdf.Term)
	obi    int
	row    []rdf.Term
	err    error
	closed bool

	ctx    context.Context
	parent *obs.Span
	span   *obs.Span
	rows   int64
}

func (e *Engine) newHashJoinStream(ctx context.Context, probe, build RowStream) *hashJoinStream {
	pv, bv := probe.Vars(), build.Vars()
	s := &hashJoinStream{e: e, probe: probe, build: build, ctx: ctx, parent: obs.FromContext(ctx)}
	s.vars = append([]string(nil), pv...)
	pPos := make(map[string]int, len(pv))
	for i, v := range pv {
		pPos[v] = i
	}
	for i, v := range bv {
		if j, ok := pPos[v]; ok {
			s.shared = append(s.shared, v)
			s.probeKeyIdx = append(s.probeKeyIdx, j)
			s.buildKeyIdx = append(s.buildKeyIdx, i)
		} else {
			s.vars = append(s.vars, v)
			s.buildExtra = append(s.buildExtra, i)
		}
	}
	return s
}

func (s *hashJoinStream) Vars() []string  { return s.vars }
func (s *hashJoinStream) Row() []rdf.Term { return s.row }
func (s *hashJoinStream) Err() error      { return s.err }

func (s *hashJoinStream) Next() bool {
	if s.closed || s.err != nil {
		return false
	}
	if !s.started {
		s.started = true
		if err := s.start(); err != nil {
			s.err = err
			return false
		}
	}
	for {
		if s.obi < len(s.outBuf) {
			s.row = s.outBuf[s.obi]
			s.obi++
			s.rows++
			return true
		}
		s.outBuf, s.obi = s.outBuf[:0], 0
		if s.spilled {
			batch, err := s.sj.nextMatches(s)
			if err != nil {
				s.err = err
				return false
			}
			if batch == nil {
				return false
			}
			s.outBuf = batch
			continue
		}
		if !s.fillFromProbe() {
			if err := s.probe.Err(); err != nil {
				s.err = err
			}
			return false
		}
	}
}

// start consumes the build side, switching to the spill path if the table
// outgrows the byte budget.
func (s *hashJoinStream) start() error {
	s.span = s.parent.StartChild("hash-join")
	s.span.SetAttr("on", joinLabel(s.shared))
	budget := s.e.opts.JoinSpillBytes
	if len(s.shared) == 0 {
		for s.build.Next() {
			row := copyRow(s.build.Row())
			s.cross = append(s.cross, row)
			s.buildRows++
			s.buildBytes += spillRowBytes(row)
			if s.buildBytes > budget {
				_ = s.closeBuild()
				return fmt.Errorf("core: cross-join build side exceeds the %d-byte join budget after %d rows: a cross product cannot spill; restrict the disjoint components or raise JoinSpillBytes", budget, s.buildRows)
			}
		}
		return s.closeBuild()
	}
	s.table = make(map[string][][]rdf.Term)
	for s.build.Next() {
		row := copyRow(s.build.Row())
		key, ok := qplan.JoinKey(row, s.buildKeyIdx)
		if !ok {
			continue // unbound join key: can never match in an inner join
		}
		s.table[key] = append(s.table[key], row)
		s.buildRows++
		s.buildBytes += spillRowBytes(row)
		if s.buildBytes > budget {
			return s.spillToDisk(key)
		}
	}
	return s.closeBuild()
}

func (s *hashJoinStream) closeBuild() error {
	if err := s.build.Err(); err != nil {
		return err
	}
	return s.build.Close()
}

// fillFromProbe pulls probe rows and emits their matches into outBuf,
// returning false when the probe side is exhausted. Against a large table
// it pulls a batch and probes it across the pool in parallel.
func (s *hashJoinStream) fillFromProbe() bool {
	if s.buildRows == 0 {
		return false // empty build side: inner join is empty, skip the probe
	}
	if s.buildRows >= parallelProbeMin {
		return s.fillParallel()
	}
	for s.probe.Next() {
		prow := s.probe.Row()
		for _, brow := range s.matches(prow) {
			s.outBuf = append(s.outBuf, s.combine(prow, brow))
		}
		if len(s.outBuf) > 0 {
			return true
		}
	}
	return false
}

func (s *hashJoinStream) matches(prow []rdf.Term) [][]rdf.Term {
	if len(s.shared) == 0 {
		return s.cross
	}
	key, ok := qplan.JoinKey(prow, s.probeKeyIdx)
	if !ok {
		return nil
	}
	return s.table[key]
}

func (s *hashJoinStream) fillParallel() bool {
	var batch [][]rdf.Term
	for len(batch) < probeBatchRows && s.probe.Next() {
		batch = append(batch, copyRow(s.probe.Row()))
	}
	if len(batch) == 0 {
		return false
	}
	workers := s.e.pool.Limit()
	chunk := (len(batch) + workers - 1) / workers
	if chunk < probeChunkMinRows {
		chunk = probeChunkMinRows
	}
	var chunks [][][]rdf.Term
	for start := 0; start < len(batch); start += chunk {
		end := min(start+chunk, len(batch))
		chunks = append(chunks, batch[start:end])
	}
	results := make([][][]rdf.Term, len(chunks))
	var mu sync.Mutex
	s.e.pool.ForEach(s.ctx, len(chunks), func(i int) error {
		var out [][]rdf.Term
		for _, prow := range chunks[i] {
			for _, brow := range s.matches(prow) {
				out = append(out, s.combine(prow, brow))
			}
		}
		mu.Lock()
		results[i] = out
		mu.Unlock()
		return nil
	})
	for _, out := range results {
		s.outBuf = append(s.outBuf, out...)
	}
	// A batch may produce zero matches; report progress anyway — the caller
	// loops until outBuf fills or the probe side ends.
	return true
}

func (s *hashJoinStream) combine(prow, brow []rdf.Term) []rdf.Term {
	out := make([]rdf.Term, len(s.vars))
	copy(out, prow)
	for k, bi := range s.buildExtra {
		out[len(prow)+k] = brow[bi]
	}
	return out
}

func (s *hashJoinStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var err1, err2 error
	err1 = s.build.Close()
	err2 = s.probe.Close()
	if s.sj != nil {
		s.sj.close()
	}
	s.table = nil
	s.cross = nil
	s.span.SetAttr("build_rows", int(s.buildRows))
	s.span.SetAttr("spilled", s.spilled)
	s.span.SetAttr("rows", int(s.rows))
	s.span.End()
	if err1 != nil {
		return err1
	}
	return err2
}

func joinLabel(shared []string) string {
	if len(shared) == 0 {
		return "(cross)"
	}
	out := ""
	for i, v := range shared {
		if i > 0 {
			out += ","
		}
		out += "?" + v
	}
	return out
}

// --- spill path -----------------------------------------------------------

// spillToDisk dumps the in-memory table plus the rest of both inputs into
// two external sorters keyed by join key, then sets up the merge join.
// lastKey is the key whose insert crossed the budget.
func (s *hashJoinStream) spillToDisk(lastKey string) error {
	s.spilled = true
	budget := s.e.opts.JoinSpillBytes
	buildSorter := diskstore.NewSorter("", "lusail-join-build", budget/2)
	probeSorter := diskstore.NewSorter("", "lusail-join-probe", budget/2)
	fail := func(err error) error {
		buildSorter.Close()
		probeSorter.Close()
		return err
	}
	var rec []byte
	for key, rows := range s.table {
		for _, row := range rows {
			rec = encodeSpillRec(rec[:0], key, row)
			if err := buildSorter.Add(rec); err != nil {
				return fail(err)
			}
		}
	}
	s.table = nil
	_ = lastKey
	for s.build.Next() {
		row := s.build.Row()
		key, ok := qplan.JoinKey(row, s.buildKeyIdx)
		if !ok {
			continue
		}
		s.buildRows++
		rec = encodeSpillRec(rec[:0], key, row)
		if err := buildSorter.Add(rec); err != nil {
			return fail(err)
		}
	}
	if err := s.closeBuild(); err != nil {
		return fail(err)
	}
	for s.probe.Next() {
		row := s.probe.Row()
		key, ok := qplan.JoinKey(row, s.probeKeyIdx)
		if !ok {
			continue
		}
		rec = encodeSpillRec(rec[:0], key, row)
		if err := probeSorter.Add(rec); err != nil {
			return fail(err)
		}
	}
	if err := s.probe.Err(); err != nil {
		return fail(err)
	}
	bIt, err := buildSorter.Iter()
	if err != nil {
		return fail(err)
	}
	pIt, err := probeSorter.Iter()
	if err != nil {
		bIt.Close()
		probeSorter.Close()
		return err
	}
	s.sj = &spillJoin{build: &spillCursor{it: bIt}, probe: &spillCursor{it: pIt}}
	s.sj.build.advance()
	s.sj.probe.advance()
	return nil
}

// spillCursor holds a stable copy of the sorter iterator's current record.
type spillCursor struct {
	it  *diskstore.SortIter
	cur []byte // nil at EOF
	err error
}

func (c *spillCursor) advance() {
	rec, err := c.it.Next()
	if err != nil {
		c.cur = nil
		if !errors.Is(err, io.EOF) { // a real failure, not end-of-runs
			c.err = err
		}
		return
	}
	c.cur = append(c.cur[:0], rec...)
}

// spillJoin merge-joins the two sorted spills group by group: records
// sharing a join key are contiguous after sorting, so each matched key
// materializes only its build-side group while probe rows of that key
// stream through.
type spillJoin struct {
	build, probe *spillCursor
	group        [][]rdf.Term // decoded build rows of the current key
	groupKey     []byte
}

// nextMatches returns the combined rows for the next probe row that has
// build matches, or (nil, nil) at end of join.
func (sj *spillJoin) nextMatches(hj *hashJoinStream) ([][]rdf.Term, error) {
	for {
		if err := sj.build.err; err != nil {
			return nil, err
		}
		if err := sj.probe.err; err != nil {
			return nil, err
		}
		if sj.group != nil {
			if sj.probe.cur != nil && bytes.Equal(spillRecKey(sj.probe.cur), sj.groupKey) {
				prow, err := decodeSpillRow(sj.probe.cur)
				if err != nil {
					return nil, err
				}
				sj.probe.advance()
				out := make([][]rdf.Term, 0, len(sj.group))
				for _, brow := range sj.group {
					out = append(out, hj.combine(prow, brow))
				}
				return out, nil
			}
			sj.group, sj.groupKey = nil, nil
			continue
		}
		if sj.build.cur == nil || sj.probe.cur == nil {
			return nil, nil
		}
		bKey, pKey := spillRecKey(sj.build.cur), spillRecKey(sj.probe.cur)
		switch c := bytes.Compare(bKey, pKey); {
		case c < 0:
			sj.skipGroup(sj.build, bKey)
		case c > 0:
			sj.skipGroup(sj.probe, pKey)
		default:
			sj.groupKey = append([]byte(nil), bKey...)
			for sj.build.cur != nil && bytes.Equal(spillRecKey(sj.build.cur), sj.groupKey) {
				brow, err := decodeSpillRow(sj.build.cur)
				if err != nil {
					return nil, err
				}
				sj.group = append(sj.group, brow)
				sj.build.advance()
			}
		}
	}
}

func (sj *spillJoin) skipGroup(c *spillCursor, key []byte) {
	key = append([]byte(nil), key...)
	for c.cur != nil && bytes.Equal(spillRecKey(c.cur), key) {
		c.advance()
	}
}

func (sj *spillJoin) close() {
	sj.build.it.Close()
	sj.probe.it.Close()
	sj.group = nil
}

// --- spill record encoding ------------------------------------------------
//
// Layout: uvarint(len key) | key | uvarint(nTerms) | per term:
// kind byte, uvarint-framed value, lang, datatype. Records sharing a key
// share a byte prefix, so bytes.Compare sorting groups equal keys
// contiguously — exactly what the merge join needs.

func encodeSpillRec(buf []byte, key string, row []rdf.Term) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, t := range row {
		buf = append(buf, byte(t.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(t.Value)))
		buf = append(buf, t.Value...)
		buf = binary.AppendUvarint(buf, uint64(len(t.Lang)))
		buf = append(buf, t.Lang...)
		buf = binary.AppendUvarint(buf, uint64(len(t.Datatype)))
		buf = append(buf, t.Datatype...)
	}
	return buf
}

// spillRecKey returns the key bytes of an encoded record.
func spillRecKey(rec []byte) []byte {
	n, w := binary.Uvarint(rec)
	return rec[w : w+int(n)]
}

// decodeSpillRow decodes the row part of an encoded record. The returned
// terms own their storage.
func decodeSpillRow(rec []byte) ([]rdf.Term, error) {
	n, w := binary.Uvarint(rec)
	if w <= 0 {
		return nil, fmt.Errorf("lusail: corrupt spill record")
	}
	p := rec[w+int(n):]
	nt, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, fmt.Errorf("lusail: corrupt spill record")
	}
	p = p[w:]
	row := make([]rdf.Term, nt)
	readStr := func() (string, bool) {
		l, w := binary.Uvarint(p)
		if w <= 0 || int(l) > len(p)-w {
			return "", false
		}
		s := string(p[w : w+int(l)])
		p = p[w+int(l):]
		return s, true
	}
	for i := range row {
		if len(p) < 1 {
			return nil, fmt.Errorf("lusail: corrupt spill record")
		}
		kind := p[0]
		p = p[1:]
		v, ok1 := readStr()
		lang, ok2 := readStr()
		dt, ok3 := readStr()
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("lusail: corrupt spill record")
		}
		row[i] = rdf.Term{Kind: rdf.Kind(kind), Value: v, Lang: lang, Datatype: dt}
	}
	return row, nil
}

// spillRowBytes estimates a row's resident footprint in the hash table.
func spillRowBytes(row []rdf.Term) int64 {
	n := int64(24 + 16*len(row))
	for _, t := range row {
		n += int64(len(t.Value) + len(t.Lang) + len(t.Datatype) + 48)
	}
	return n
}
