package op

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"

	"lusail/internal/diskstore"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// DefaultSpillBytes is the build-side budget of a hash join unless the
// engine is configured otherwise (core.Options.JoinSpillBytes).
const DefaultSpillBytes = 64 << 20

// Probe parallelism (the paper's parallel in-memory hash join, Section
// 4.2): once the build table holds at least parallelProbeMin rows, probe
// rows are pulled in batches and probed in chunks, one goroutine per CPU.
const (
	parallelProbeMin  = 4096
	probeBatchRows    = 512
	probeChunkMinRows = 64
)

// Budget is what a hash join may spend: SpillBytes bounds the estimated
// footprint of the in-memory build side.
type Budget struct {
	SpillBytes int64
}

// ErrBudget is the error of a join that outgrows its budget where it
// cannot spill: a cross product's build side, or, once a join has spilled,
// its rows with an unbound join variable, which have no key to sort under
// and stay in memory.
var ErrBudget = errors.New("op: join exceeds its memory budget")

// HashJoin inner-joins two streams on their shared variables with an
// incremental build/probe hash join: the build side is consumed into a
// hash table on first Next, then probe rows stream through one at a time
// (or in parallel batches against a large table), each emitting its
// matches immediately — in probe order, and per probe row in build order.
// The output carries the probe's variables followed by the build side's
// other variables. Rows join by the one rule of Table and Shared: a row
// with an unbound join variable joins every row that agrees with it on
// the variables both bind.
//
// Memory is bounded by the build side, never the output: a build side
// whose table exceeds b.SpillBytes spills both sides to disk through the
// diskstore sorter and the join finishes as a sort-merge over the spilled
// runs (grace-join style: first-row latency is traded for bounded memory).
// A row with an unbound join variable has no key to sort under; it stays
// in memory, the rows of both sides held together to the budget. Such a
// build row meets every probe row, and such a probe row meets every build
// row: the spilled ones as the merge passes them. The spill path rides the
// sorter's record deduplication, so duplicate (key,row) records collapse:
// every caller applies set semantics downstream.
//
// With no shared variables the operator degenerates to a cross product and
// keeps the build side in memory — a cross product cannot be keyed for a
// merge join, so it cannot spill. The build side is still held to the
// budget: a remote endpoint must not be able to grow it without bound, so
// exceeding the budget fails the join with ErrBudget instead.
func HashJoin(ctx context.Context, probe, build RowStream, b Budget) RowStream {
	return newHashJoin(ctx, probe, build, b, false, nil, nil)
}

// LeftJoin is HashJoin in left mode — SPARQL OPTIONAL with the probe side
// preserved: each probe row is extended by the build rows it joins with
// whose combined row satisfies cond, and a probe row with no such
// extension is emitted once, zero-extended. cond is the OPTIONAL block's
// FILTER, so it sees the variables of both sides. A left join whose probe
// side is empty never consumes its build side. Its trace span is named
// "optional". The condition reads terms through dict.
func LeftJoin(ctx context.Context, probe, build RowStream, dict *rdf.Dict, cond []sparql.Expr, b Budget) RowStream {
	return newHashJoin(ctx, probe, build, b, true, dict, cond)
}

// KeyedJoin inner-joins probe and build on an equality filter linking
// them, where sparql.KeyEquality recognizes eq and one side binds each of
// its variables: it widens each side with the key of its variable — the
// id of STR(term) for STR(?a) = STR(?b), the term's own id for sameTerm —
// hash-joins the sides on that column as well as on any variables they
// share, keeps the combined rows on which eq holds, and drops the column
// again. The key is only a pre-filter: rows whose keys differ never
// satisfy eq, and a row whose variable is unbound, on which eq errors,
// joins nothing. So the result is always HashJoin followed by Filter(eq);
// for any other eq it is computed that way. Its span's "on" attribute is
// eq. The terms are read and the keys interned through dict.
func KeyedJoin(ctx context.Context, probe, build RowStream, dict *rdf.Dict, eq sparql.Expr, b Budget) RowStream {
	cond := []sparql.Expr{eq}
	x, y, str, ok := sparql.KeyEquality(eq)
	if !slices.Contains(probe.Vars(), x) {
		x, y = y, x
	}
	px, by := slices.Index(probe.Vars(), x), slices.Index(build.Vars(), y)
	if !ok || px < 0 || by < 0 {
		return newHashJoin(ctx, probe, build, b, false, dict, cond)
	}
	key := sparql.ExprString(eq) // no variable can have this name
	s := newHashJoin(ctx, withKey(probe, dict, px, str, key), withKey(build, dict, by, str, key), b, false, dict, cond)
	s.label = key
	return Align(s, slices.DeleteFunc(slices.Clone(s.sh.Vars), func(v string) bool { return v == key }))
}

// keyStream widens its source's rows with one column named key: the key
// of column col, the id of STR(term) when str is set and the id itself
// otherwise. It drops rows whose column is unbound.
type keyStream struct {
	RowStream
	dict *rdf.Dict
	col  int
	str  bool
	vars []string
	strs map[uint32]uint32 // id → id of STR(term)
	row  []uint32
}

func withKey(src RowStream, dict *rdf.Dict, col int, str bool, key string) RowStream {
	return &keyStream{RowStream: src, dict: dict, col: col, str: str, vars: append(slices.Clone(src.Vars()), key), strs: map[uint32]uint32{}}
}

func (s *keyStream) Vars() []string { return s.vars }
func (s *keyStream) Row() []uint32  { return s.row }

func (s *keyStream) Next() bool {
	for s.RowStream.Next() {
		in := s.RowStream.Row()
		key := in[s.col]
		if key == 0 {
			continue
		}
		if s.str {
			id, ok := s.strs[key]
			if !ok {
				var ids [1]uint32
				s.dict.InternRow([]rdf.Term{rdf.NewLiteral(s.dict.Term(key).Value)}, ids[:])
				id = ids[0]
				s.strs[key] = id
			}
			key = id
		}
		s.row = append(append(s.row[:0], in...), key)
		return true
	}
	return false
}

type hashJoin struct {
	probe  RowStream
	build  RowStream
	budget Budget
	left   bool
	label  string // the span's "on" attribute
	dict   *rdf.Dict
	exprs  []sparql.Expr // join condition: OPTIONAL filters, a keyed join's equality
	cond   *Cond         // exprs for the goroutine driving Next
	sh     Shared        // probe on the left, build on the right

	started bool
	pending bool // the current probe row has not been joined yet
	done    bool
	table   *Table // the build side; once spilled, its rows with an unbound join variable
	scratch Probe  // of the goroutine driving Next
	sj      *spillJoin

	buildRows int64
	spilled   bool

	out     rowBuf // the output rows not yet returned, from obi on
	obi     int
	batch   rowBuf    // the parallel probe's batch of probe rows
	workers []*worker // the parallel probe's, one per chunk of a batch
	row     []uint32
	err     error
	closed  bool

	parent *obs.Span
	span   *obs.Span
	rows   int64
}

func newHashJoin(ctx context.Context, probe, build RowStream, b Budget, left bool, dict *rdf.Dict, cond []sparql.Expr) *hashJoin {
	s := &hashJoin{probe: probe, build: build, budget: b, left: left, dict: dict, exprs: cond, parent: obs.FromContext(ctx)}
	s.sh = Share(probe.Vars(), build.Vars())
	s.out.width, s.batch.width = len(s.sh.Vars), len(probe.Vars())
	s.cond = NewCond(dict, s.sh.Vars, cond)
	s.label = joinLabel(s.sh.Names)
	return s
}

func (s *hashJoin) Vars() []string { return s.sh.Vars }
func (s *hashJoin) Row() []uint32  { return s.row }
func (s *hashJoin) Err() error     { return s.err }

func (s *hashJoin) Next() bool {
	if s.closed || s.done || s.err != nil {
		return false
	}
	if !s.started {
		s.started = true
		if s.left {
			if !s.probe.Next() {
				s.done, s.err = true, s.probe.Err()
				return false
			}
			s.pending = true
		}
		if s.err = s.start(); s.err != nil {
			return false
		}
	}
	for {
		if s.obi < s.out.n {
			s.row = s.out.row(s.obi)
			s.obi++
			s.rows++
			return true
		}
		s.out.reset()
		s.obi = 0
		if s.spilled {
			var more bool
			if more, s.err = s.sj.fill(s); !more || s.err != nil {
				s.done = true
				return false
			}
			continue
		}
		if !s.fillFromProbe() {
			s.done, s.err = true, s.probe.Err()
			return false
		}
	}
}

// nextProbe advances the probe side. A left join pulls the first probe
// row before it consumes the build side, so that an empty probe side
// never starts the build; that row is still current and is replayed here.
func (s *hashJoin) nextProbe() bool {
	if s.pending {
		s.pending = false
		return true
	}
	return s.probe.Next()
}

// start consumes the build side into the table, switching to the spill
// path if the table outgrows the byte budget.
func (s *hashJoin) start() error {
	name := "hash-join"
	if s.left {
		name = "optional"
	}
	s.span = s.parent.StartChild(name)
	s.span.SetAttr("on", s.label)
	s.table = NewTable(s.sh.Right, 0)
	for s.build.Next() {
		s.table.Add(s.build.Row())
		s.buildRows++
		if s.table.bytes <= s.budget.SpillBytes {
			continue
		}
		if len(s.sh.Names) == 0 {
			_ = s.closeBuild()
			return fmt.Errorf("%w: a cross join's build side passes %d bytes after %d rows and a cross product cannot spill; restrict the disjoint components or raise the budget (JoinSpillBytes)", ErrBudget, s.budget.SpillBytes, s.buildRows)
		}
		return s.spillToDisk()
	}
	return s.closeBuild()
}

func (s *hashJoin) closeBuild() error {
	if err := s.build.Err(); err != nil {
		return err
	}
	return s.build.Close()
}

// fillFromProbe pulls probe rows and emits their output into out,
// returning false when the probe side is exhausted. Against a large table
// it pulls a batch and probes it across the CPUs in parallel.
func (s *hashJoin) fillFromProbe() bool {
	if s.table.Len() == 0 && !s.left {
		return false // empty build side: an inner join is empty, skip the probe
	}
	if s.table.Len() >= parallelProbeMin {
		return s.fillParallel()
	}
	for s.nextProbe() {
		if s.emit(&s.out, s.probe.Row(), nil, &s.scratch, s.cond); s.out.n > 0 {
			return true
		}
	}
	return false
}

// emit appends one probe row's output to out: its combinations that
// satisfy cond with the build rows it joins — group, rows already known
// to join it, then the table's matches — or in left mode, when there are
// none, the probe row itself, zero-extended.
func (s *hashJoin) emit(out *rowBuf, prow []uint32, group *rowBuf, p *Probe, cond *Cond) {
	n := out.n
	if group != nil {
		for i := range group.n {
			s.keep(out, prow, group.row(i), cond)
		}
	}
	for _, i := range s.table.Matches(prow, s.sh.Left, p) {
		s.keep(out, prow, s.table.Row(i), cond)
	}
	if s.left && out.n == n {
		s.sh.Combine(out.add(), prow, nil)
	}
}

// keep appends the combination of a probe and a build row to out and
// reports true when cond holds on it.
func (s *hashJoin) keep(out *rowBuf, prow, brow []uint32, cond *Cond) bool {
	if cond.Holds(s.sh.Combine(out.add(), prow, brow)) {
		return true
	}
	out.pop()
	return false
}

// worker is the state of one goroutine of the parallel probe, kept from
// batch to batch.
type worker struct {
	out  rowBuf
	p    Probe
	cond *Cond
}

func (s *hashJoin) fillParallel() bool {
	s.batch.reset()
	for s.batch.n < probeBatchRows && s.nextProbe() {
		s.batch.push(s.probe.Row())
	}
	if s.batch.n == 0 {
		return false
	}
	workers := runtime.GOMAXPROCS(0)
	chunk := max((s.batch.n+workers-1)/workers, probeChunkMinRows)
	chunks := (s.batch.n + chunk - 1) / chunk
	for len(s.workers) < chunks {
		s.workers = append(s.workers, &worker{out: rowBuf{width: s.out.width}, cond: NewCond(s.dict, s.sh.Vars, s.exprs)})
	}
	var wg sync.WaitGroup
	for i, w := range s.workers[:chunks] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := i * chunk; j < min((i+1)*chunk, s.batch.n); j++ {
				s.emit(&w.out, s.batch.row(j), nil, &w.p, w.cond)
			}
		}()
	}
	wg.Wait()
	for _, w := range s.workers {
		s.out.cells = append(s.out.cells, w.out.cells...)
		s.out.n += w.out.n
		w.out.reset()
	}
	// A batch may produce zero rows; report progress anyway — the caller
	// loops until out fills or the probe side ends.
	return true
}

func (s *hashJoin) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err1 := s.build.Close()
	err2 := s.probe.Close()
	if s.sj != nil {
		s.sj.close()
	}
	s.table = nil
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
	return "?" + strings.Join(shared, ",?")
}

// --- spill path -----------------------------------------------------------

// spillToDisk dumps the table's keyed rows plus the rest of both inputs'
// into two external sorters keyed by join key, then sets up the merge
// join. A row with an unbound join variable has no key to sort under: it
// stays in memory, the rows of both sides held together to the budget. A
// build row with one meets every probe row; a probe row with one meets
// every build row, the spilled ones in the merge's pass over them.
func (s *hashJoin) spillToDisk() error {
	s.spilled = true
	budget := s.budget.SpillBytes
	buildSorter := diskstore.NewSorter("", "lusail-join-build", budget/2)
	probeSorter := diskstore.NewSorter("", "lusail-join-probe", budget/2)
	fail := func(err error) error {
		buildSorter.Close()
		probeSorter.Close()
		return err
	}
	looseBuild, looseProbe := NewTable(s.sh.Right, 0), NewTable(s.sh.Left, 0)
	var key, rec []byte
	// put sorts a row under its key, or keeps one that has none in loose.
	put := func(sorter *diskstore.Sorter, loose *Table, row []uint32, cols []int) error {
		var keyed bool
		if key, keyed = appendKey(key[:0], row, cols); keyed {
			rec = encodeSpillRec(rec[:0], key, row)
			return sorter.Add(rec)
		}
		loose.Add(row)
		if n := looseBuild.bytes + looseProbe.bytes; n > budget {
			return fmt.Errorf("%w: %d bytes of rows with an unbound join variable stay in memory beside the spilled join; raise the budget (JoinSpillBytes)", ErrBudget, n)
		}
		return nil
	}
	for i := range s.table.Len() {
		if err := put(buildSorter, looseBuild, s.table.Row(int32(i)), s.sh.Right); err != nil {
			return fail(err)
		}
	}
	for s.build.Next() {
		s.buildRows++
		if err := put(buildSorter, looseBuild, s.build.Row(), s.sh.Right); err != nil {
			return fail(err)
		}
	}
	if err := s.closeBuild(); err != nil {
		return fail(err)
	}
	s.table = looseBuild
	for s.nextProbe() {
		if err := put(probeSorter, looseProbe, s.probe.Row(), s.sh.Left); err != nil {
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
	s.sj = &spillJoin{build: &spillCursor{it: bIt}, probe: &spillCursor{it: pIt}, group: rowBuf{width: len(s.build.Vars())},
		prow: make([]uint32, len(s.probe.Vars())), brow: make([]uint32, len(s.build.Vars()))}
	if looseProbe.Len() > 0 {
		s.sj.loose, s.sj.joined = looseProbe, make([]bool, looseProbe.Len())
	}
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

func (c *spillCursor) key() []byte { return spillRecKey(c.cur) }

// spillJoin merge-joins the two sorted spills: records sharing a join key
// are contiguous after sorting, so only the build group of the current
// probe key is materialized while probe rows stream through. The probe
// rows with an unbound join variable (loose) meet every build record the
// merge passes, and once the keyed probe rows are done, the records it
// did not reach and the build rows kept in memory.
type spillJoin struct {
	build, probe *spillCursor
	group        rowBuf   // decoded build rows of groupKey
	groupKey     []byte   // nil before the first seek
	prow, brow   []uint32 // a decoded probe row, a decoded build row
	p            Probe
	loose        *Table // nil once its rows have met every build row
	joined       []bool // per loose row, whether it joined a build row
}

// fill appends the next output to hj.out, reporting false at the end of
// the join.
func (sj *spillJoin) fill(hj *hashJoin) (bool, error) {
	for hj.out.n == 0 {
		if err := errors.Join(sj.build.err, sj.probe.err); err != nil {
			return false, err
		}
		if sj.probe.cur == nil {
			if sj.loose == nil {
				return false, nil
			}
			if sj.build.cur == nil {
				sj.finishLoose(hj)
			} else if err := sj.pass(hj); err != nil {
				return false, err
			}
			continue
		}
		if pKey := sj.probe.key(); sj.groupKey == nil || !bytes.Equal(pKey, sj.groupKey) {
			if err := sj.seek(hj, pKey); err != nil {
				return false, err
			}
		}
		if sj.group.n == 0 && !hj.left && hj.table.Len() == 0 {
			sj.probe.advance()
			continue
		}
		if err := decodeSpillRow(sj.prow, sj.probe.cur); err != nil {
			return false, err
		}
		sj.probe.advance()
		hj.emit(&hj.out, sj.prow, &sj.group, &sj.p, hj.cond)
	}
	return true, nil
}

// seek advances the build cursor to key and loads its group (empty when
// the build side has no row with that key). The loose probe rows meet
// every record it passes.
func (sj *spillJoin) seek(hj *hashJoin, key []byte) error {
	sj.group.reset()
	sj.groupKey = append(sj.groupKey[:0], key...)
	for sj.build.cur != nil && bytes.Compare(sj.build.key(), sj.groupKey) < 0 {
		if err := sj.pass(hj); err != nil {
			return err
		}
	}
	for sj.build.cur != nil && bytes.Equal(sj.build.key(), sj.groupKey) {
		brow := sj.group.add()
		if err := decodeSpillRow(brow, sj.build.cur); err != nil {
			return err
		}
		sj.meet(hj, brow)
		sj.build.advance()
	}
	return nil
}

// pass lets the loose probe rows meet the current build record, which the
// merge does not join, and advances the build cursor past it.
func (sj *spillJoin) pass(hj *hashJoin) error {
	if sj.loose != nil {
		if err := decodeSpillRow(sj.brow, sj.build.cur); err != nil {
			return err
		}
		sj.meet(hj, sj.brow)
	}
	sj.build.advance()
	return nil
}

// meet appends the joins of the loose probe rows with a spilled build row
// to hj.out.
func (sj *spillJoin) meet(hj *hashJoin, brow []uint32) {
	if sj.loose == nil {
		return
	}
	for _, i := range sj.loose.Matches(brow, hj.sh.Right, &sj.p) {
		if hj.keep(&hj.out, sj.loose.Row(i), brow, hj.cond) {
			sj.joined[i] = true
		}
	}
}

// finishLoose joins the loose probe rows, which have met every spilled
// build row, with the build rows kept in memory; in left mode a loose row
// that joined nothing follows zero-extended.
func (sj *spillJoin) finishLoose(hj *hashJoin) {
	for i := range sj.loose.Len() {
		prow := sj.loose.Row(int32(i))
		n := hj.out.n
		for _, j := range hj.table.Matches(prow, hj.sh.Left, &sj.p) {
			hj.keep(&hj.out, prow, hj.table.Row(j), hj.cond)
		}
		if hj.left && !sj.joined[i] && hj.out.n == n {
			hj.sh.Combine(hj.out.add(), prow, nil)
		}
	}
	sj.loose = nil
}

func (sj *spillJoin) close() {
	sj.build.it.Close()
	sj.probe.it.Close()
}

// --- spill record encoding ------------------------------------------------
//
// Layout: uvarint(len key) | key | the row's ids, 4 bytes each. Spilled
// rows carry ids: the dictionary stays in memory. Records sharing a key
// share a byte prefix, so bytes.Compare sorting groups equal keys
// contiguously — exactly what the merge join needs.

func encodeSpillRec(buf, key []byte, row []uint32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	for _, id := range row {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return buf
}

// spillRecKey returns the length-framed key of an encoded record. Framed
// keys compare with bytes.Compare in the order the sorter gave the records
// (shorter keys first), which the merge relies on; the bare key bytes do
// not.
func spillRecKey(rec []byte) []byte {
	n, w := binary.Uvarint(rec)
	return rec[:w+int(n)]
}

var errCorruptSpill = errors.New("op: corrupt spill record")

// decodeSpillRow decodes the row part of an encoded record into row,
// which has the record's width.
func decodeSpillRow(row []uint32, rec []byte) error {
	l, w := binary.Uvarint(rec)
	if w <= 0 || l > uint64(len(rec)-w) || len(rec)-w-int(l) != 4*len(row) {
		return errCorruptSpill
	}
	p := rec[w+int(l):]
	for i := range row {
		row[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	return nil
}

// rowBuf is a reused buffer of rows of one width, their ids back to back.
// It counts its rows apart from the ids, so zero-width rows count too.
type rowBuf struct {
	width int
	cells []uint32
	n     int
}

func (b *rowBuf) row(i int) []uint32 {
	return b.cells[i*b.width : (i+1)*b.width : (i+1)*b.width]
}

// add appends a zeroed row and returns it.
func (b *rowBuf) add() []uint32 {
	b.cells = slices.Grow(b.cells, b.width)[:len(b.cells)+b.width]
	b.n++
	row := b.row(b.n - 1)
	clear(row)
	return row
}

// push appends a copy of row.
func (b *rowBuf) push(row []uint32) {
	b.cells = append(b.cells, row...)
	b.n++
}

// pop drops the last row.
func (b *rowBuf) pop() {
	b.n--
	b.cells = b.cells[:b.n*b.width]
}

func (b *rowBuf) reset() {
	b.cells, b.n = b.cells[:0], 0
}
