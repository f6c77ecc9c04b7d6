// Package op is the one relational kernel of the federated tier: pull-based
// operators over solution rows of term ids — ids into the query
// execution's rdf.Dict — that both the Lusail engine (internal/core) and
// the comparator executor (internal/baseline) assemble. Everything here is
// independent of endpoints: core adds its two remote operators (scans and
// bound joins) on top. The modifier tail (Finish) takes any Dict, so the
// endpoint evaluator (internal/eval) finishes its store's rows on it too.
package op

import (
	"encoding/binary"
	"errors"
	"hash/maphash"
	"slices"
	"strconv"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/sparql/expr"
)

// RowStream is the pull-based operator interface of the streaming
// execution pipeline (Volcano-style iterators over solution rows). A
// stream is lazy: no endpoint work starts until the first Next. The
// contract:
//
//   - Next advances to the next row, returning false at end-of-stream or
//     on error; after false, Err distinguishes the two.
//   - Row returns the current row of ids, aligned to Vars (unbound
//     variables are 0); it is only valid until the next Next or Close.
//   - Close releases the operator and everything beneath it — endpoint
//     requests, goroutines, spill files — on every path, including
//     mid-stream abandonment. It is idempotent. A deliberately closed
//     stream reports no error for the abandonment itself.
//
// Streams are not safe for concurrent use: one goroutine drives Next, Row,
// Err, and Close. Operators respect the context they were built with, so
// cancelling it unblocks any operator waiting on endpoint I/O.
type RowStream interface {
	Vars() []string
	Next() bool
	Row() []uint32
	Err() error
	Close() error
}

// Dict is what the modifier tail needs of a stream's dictionary: terms for
// ids, id 0 being unbound, and ids for terms. *rdf.Dict is one; the
// endpoint evaluator's query scope is the other.
type Dict interface {
	// Term returns the term an id names; 0 is the zero Term.
	Term(id uint32) rdf.Term
	// Terms decodes ids into out, grown as needed.
	Terms(ids []uint32, out []rdf.Term) []rdf.Term
	// InternRow writes the id of every term of row into ids.
	InternRow(row []rdf.Term, ids []uint32)
}

// CopyRow returns a retained copy of a borrowed row.
func CopyRow(row []uint32) []uint32 {
	return append([]uint32(nil), row...)
}

// InternRows returns rows of terms as rows of ids in dict.
func InternRows(dict *rdf.Dict, rows [][]rdf.Term) [][]uint32 {
	out := make([][]uint32, len(rows))
	for i, row := range rows {
		out[i] = make([]uint32, len(row))
		dict.InternRow(row, out[i])
	}
	return out
}

// Values returns the query text's i-th VALUES block of a branch as rows
// of ids in dict, the in-memory build side every executor joins it on. A
// VALUES block is a multiset, so each row carries its position in a
// hidden column that a branch tail's Dedup sees and its Align drops: two
// equal rows, or two rows that UNDEF makes join a solution alike, answer
// twice, as over the union graph. The colon in the column's name keeps it
// apart from every SPARQL variable.
func Values(dict *rdf.Dict, vd sparql.InlineData, i int) RowStream {
	rows := make([][]rdf.Term, len(vd.Rows))
	for j, row := range vd.Rows {
		rows[j] = append(slices.Clip(row), rdf.NewInteger(int64(j)))
	}
	return NewSlice(append(slices.Clip(vd.Vars), "lusail:values"+strconv.Itoa(i)), InternRows(dict, rows))
}

// TermRows returns rows of ids in dict as rows of terms, carved from one
// allocation.
func TermRows(dict Dict, rows [][]uint32) [][]rdf.Term {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	out := make([][]rdf.Term, len(rows))
	cells := make([]rdf.Term, n)
	for i, row := range rows {
		out[i] = dict.Terms(row, cells[:0:len(row)])
		cells = cells[len(row):]
	}
	return out
}

// VarIndexes maps each source column to its position in target (-1 when
// the target does not carry that variable).
func VarIndexes(target, src []string) []int {
	pos := make(map[string]int, len(target))
	for i, v := range target {
		pos[v] = i
	}
	idx := make([]int, len(src))
	for j, v := range src {
		if i, ok := pos[v]; ok {
			idx[j] = i
		} else {
			idx[j] = -1
		}
	}
	return idx
}

// appendKey appends the join key of a row over the columns idx to buf —
// the bytes of the columns' ids, a spilled record's sort key. The second
// return is false when a key column is unbound: the row has no key to
// sort under.
func appendKey(buf []byte, row []uint32, idx []int) ([]byte, bool) {
	for _, i := range idx {
		if row[i] == 0 {
			return buf, false
		}
		buf = binary.LittleEndian.AppendUint32(buf, row[i])
	}
	return buf, true
}

// DistinctTuples projects rows onto the columns idx and returns the
// distinct projections in first-seen order — the bindings a bound join
// ships in a VALUES block, where an unbound cell is UNDEF. The tuples are
// carved from one slice.
func DistinctTuples(rows [][]uint32, idx []int) [][]uint32 {
	var seen idIndex
	seen.reserve(len(rows))
	cells := make([]uint32, 0, len(rows)*len(idx))
	var out [][]uint32
	hash := func(g int32) uint64 { return hashIDs(out[g]) }
	for _, row := range rows {
		n := len(cells)
		for _, j := range idx {
			cells = append(cells, row[j])
		}
		t := cells[n:len(cells):len(cells)]
		if _, ok := seen.lookup(hashIDs(t), func(g int32) bool { return slices.Equal(out[g], t) }, hash); ok {
			cells = cells[:n]
			continue
		}
		out = append(out, t)
	}
	return out
}

// Cond is a conjunction of FILTER expressions evaluated on rows over a
// fixed variable list, decoding the row's ids through dict. It reuses one
// binding map, so every goroutine that evaluates rows needs its own Cond.
// A nil Cond holds for every row.
type Cond struct {
	dict    *rdf.Dict
	vars    []string
	exprs   []sparql.Expr
	binding map[string]rdf.Term
}

// NewCond returns the condition, or nil when there are no expressions.
func NewCond(dict *rdf.Dict, vars []string, exprs []sparql.Expr) *Cond {
	if len(exprs) == 0 {
		return nil
	}
	return &Cond{dict: dict, vars: vars, exprs: exprs, binding: make(map[string]rdf.Term, len(vars))}
}

// Holds reports whether every expression is true on the row. Variables
// unbound in the row, or absent from the variable list, are unbound for
// the expressions (an erroring expression is false, as in a FILTER).
func (c *Cond) Holds(row []uint32) bool {
	if c == nil {
		return true
	}
	clear(c.binding)
	for i, v := range c.vars {
		if row[i] != 0 {
			c.binding[v] = c.dict.Term(row[i])
		}
	}
	for _, x := range c.exprs {
		if !expr.Holds(x, c.binding) {
			return false
		}
	}
	return true
}

// sliceStream serves an in-memory row slice (VALUES blocks, empty
// branches, materialized relations).
type sliceStream struct {
	vars []string
	rows [][]uint32
	i    int
	row  []uint32
}

// NewSlice returns a stream over rows, which must be aligned to vars.
func NewSlice(vars []string, rows [][]uint32) RowStream {
	return &sliceStream{vars: vars, rows: rows}
}

func (s *sliceStream) Vars() []string { return s.vars }
func (s *sliceStream) Row() []uint32  { return s.row }
func (s *sliceStream) Err() error     { return nil }
func (s *sliceStream) Close() error   { s.i = len(s.rows); return nil }

func (s *sliceStream) Next() bool {
	if s.i >= len(s.rows) {
		return false
	}
	s.row = s.rows[s.i]
	s.i++
	return true
}

// alignStream remaps (reorders, projects, or widens) rows to a target
// variable list.
type alignStream struct {
	src  RowStream
	vars []string
	idx  []int // source column j feeds target idx[j] (-1: dropped)
	row  []uint32
}

// Align remaps src's rows to vars. Variables absent from the source stay
// unbound, as SPARQL's projection leaves a variable the solution lacks.
func Align(src RowStream, vars []string) RowStream {
	if slices.Equal(src.Vars(), vars) {
		return src
	}
	return &alignStream{
		src:  src,
		vars: vars,
		idx:  VarIndexes(vars, src.Vars()),
		row:  make([]uint32, len(vars)),
	}
}

func (s *alignStream) Vars() []string { return s.vars }
func (s *alignStream) Row() []uint32  { return s.row }
func (s *alignStream) Err() error     { return s.src.Err() }
func (s *alignStream) Close() error   { return s.src.Close() }

func (s *alignStream) Next() bool {
	if !s.src.Next() {
		return false
	}
	clear(s.row)
	for j, t := range s.src.Row() {
		if i := s.idx[j]; i >= 0 {
			s.row[i] = t
		}
	}
	return true
}

// filterStream keeps the rows passing its condition.
type filterStream struct {
	src  RowStream
	cond *Cond
}

// Filter keeps the rows of src, whose ids are in dict, on which every
// filter expression is true.
func Filter(src RowStream, dict *rdf.Dict, filters []sparql.Expr) RowStream {
	if len(filters) == 0 {
		return src
	}
	return &filterStream{src: src, cond: NewCond(dict, src.Vars(), filters)}
}

func (s *filterStream) Vars() []string { return s.src.Vars() }
func (s *filterStream) Row() []uint32  { return s.src.Row() }
func (s *filterStream) Err() error     { return s.src.Err() }
func (s *filterStream) Close() error   { return s.src.Close() }

func (s *filterStream) Next() bool {
	for s.src.Next() {
		if s.cond.Holds(s.src.Row()) {
			return true
		}
	}
	return false
}

// dedupStream drops rows already seen, using a 128-bit fingerprint (two
// independent maphash seeds over the bytes of the row's ids) instead of
// retaining the full row: ~16 bytes per distinct row rather than the row
// itself, the compromise that keeps set semantics inside a bounded-memory
// pipeline. A 128-bit collision — which would silently drop one valid row
// — has probability ~n²/2¹²⁹, negligible at any realistic result size.
type dedupStream struct {
	src    RowStream
	seen   map[[16]byte]struct{}
	s1, s2 maphash.Seed
	buf    []byte
}

// Dedup passes each distinct row of src once, in first-seen order.
func Dedup(src RowStream) RowStream {
	return &dedupStream{
		src:  src,
		seen: make(map[[16]byte]struct{}),
		s1:   maphash.MakeSeed(),
		s2:   maphash.MakeSeed(),
	}
}

func (s *dedupStream) Vars() []string { return s.src.Vars() }
func (s *dedupStream) Row() []uint32  { return s.src.Row() }
func (s *dedupStream) Err() error     { return s.src.Err() }
func (s *dedupStream) Close() error   { s.seen = nil; return s.src.Close() }

func (s *dedupStream) Next() bool {
	for s.src.Next() {
		fp := s.fingerprint(s.src.Row())
		if _, dup := s.seen[fp]; dup {
			continue
		}
		s.seen[fp] = struct{}{}
		return true
	}
	return false
}

func (s *dedupStream) fingerprint(row []uint32) [16]byte {
	b := s.buf[:0]
	for _, id := range row {
		b = binary.LittleEndian.AppendUint32(b, id)
	}
	s.buf = b
	var fp [16]byte
	binary.LittleEndian.PutUint64(fp[:8], maphash.Bytes(s.s1, b))
	binary.LittleEndian.PutUint64(fp[8:], maphash.Bytes(s.s2, b))
	return fp
}

// offsetStream skips the first n rows.
type offsetStream struct {
	src  RowStream
	skip int
}

// Offset skips the first n rows of src.
func Offset(src RowStream, n int) RowStream {
	if n <= 0 {
		return src
	}
	return &offsetStream{src: src, skip: n}
}

func (s *offsetStream) Vars() []string { return s.src.Vars() }
func (s *offsetStream) Row() []uint32  { return s.src.Row() }
func (s *offsetStream) Err() error     { return s.src.Err() }
func (s *offsetStream) Close() error   { return s.src.Close() }

func (s *offsetStream) Next() bool {
	for ; s.skip > 0; s.skip-- {
		if !s.src.Next() {
			return false
		}
	}
	return s.src.Next()
}

// limitStream stops after n rows.
type limitStream struct {
	src  RowStream
	left int
}

// Limit stops after n rows (n < 0: no limit); closing the pipeline then
// cancels any in-flight endpoint work upstream.
func Limit(src RowStream, n int) RowStream {
	if n < 0 {
		return src
	}
	return &limitStream{src: src, left: n}
}

func (s *limitStream) Vars() []string { return s.src.Vars() }
func (s *limitStream) Row() []uint32  { return s.src.Row() }
func (s *limitStream) Err() error     { return s.src.Err() }
func (s *limitStream) Close() error   { return s.src.Close() }

func (s *limitStream) Next() bool {
	if s.left <= 0 || !s.src.Next() {
		return false
	}
	s.left--
	return true
}

// concatStream streams its sources in order.
type concatStream struct {
	vars []string
	srcs []RowStream
	i    int
	err  error
}

// Union streams srcs one after another (UNION branches, per-endpoint
// answers), each aligned to the union of their variables in first-seen
// order. Duplicates pass; Dedup removes them.
func Union(srcs ...RowStream) RowStream {
	var vars []string
	for _, src := range srcs {
		for _, v := range src.Vars() {
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
		}
	}
	if len(srcs) == 1 {
		return srcs[0]
	}
	aligned := make([]RowStream, len(srcs))
	for i, src := range srcs {
		aligned[i] = Align(src, vars)
	}
	return &concatStream{vars: vars, srcs: aligned}
}

func (s *concatStream) Vars() []string { return s.vars }
func (s *concatStream) Err() error     { return s.err }
func (s *concatStream) Row() []uint32  { return s.srcs[s.i].Row() }

func (s *concatStream) Next() bool {
	for s.i < len(s.srcs) {
		if s.srcs[s.i].Next() {
			return true
		}
		if err := s.srcs[s.i].Err(); err != nil {
			s.err = err
			return false
		}
		s.i++
	}
	s.i = max(len(s.srcs)-1, 0) // keep Row() in range after exhaustion
	return false
}

func (s *concatStream) Close() error {
	var errs []error
	for _, src := range s.srcs {
		if err := src.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Collect drains src into a materialized relation of the terms its ids
// name in dict and closes it, returning the first error of the iteration
// or the Close.
func Collect(src RowStream, dict Dict) (*sparql.Results, error) {
	res := sparql.NewResults(append([]string(nil), src.Vars()...))
	rows, err := CollectIDs(src)
	if err != nil {
		return nil, err
	}
	res.Rows = TermRows(dict, rows)
	return res, nil
}

// CollectIDs drains src into retained rows of ids and closes it, returning
// the first error of the iteration or the Close.
func CollectIDs(src RowStream) ([][]uint32, error) {
	var rows [][]uint32
	//lint:lusail-vet budgetbound -- materializing is the caller's contract (modifier tail, Engine.Query, the comparators' intermediate relations); upstream growth is bounded by per-response caps and join spill budgets
	for src.Next() {
		rows = append(rows, CopyRow(src.Row()))
	}
	err := src.Err()
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	return rows, err
}

// Finish is the tail every federated engine here ends a query on, Lusail
// and the comparators alike: an ASK stops at the first row; GROUP BY,
// aggregates and ORDER BY need the complete result and go through drain,
// over only the columns they read (sparql.ModifierVars); projection,
// DISTINCT, OFFSET and LIMIT then stream, so a drained ORDER BY … LIMIT k
// interns only the k rows it passes on.
func Finish(q *sparql.Query, dict Dict, src RowStream) RowStream {
	if q.Form == sparql.AskForm {
		return Limit(src, 1)
	}
	vars := q.ProjectedVars()
	if grouped := len(q.GroupBy) > 0 || q.HasAggregates(); grouped || len(q.OrderBy) > 0 {
		src = drain(q, dict, Align(src, sparql.ModifierVars(q)))
		if grouped && len(q.Projection) == 0 {
			vars = src.Vars() // SELECT * over groups: the grouping variables
		}
	}
	src = Align(src, vars)
	if q.Distinct {
		src = Dedup(src)
	}
	return Limit(Offset(src, q.Offset), q.Limit)
}

// Answer collects a finished stream into the query's result: the rows of
// a SELECT, or for an ASK whether there was one.
func Answer(q *sparql.Query, dict Dict, src RowStream) (*sparql.Results, error) {
	res, err := Collect(src, dict)
	if err != nil || q.Form != sparql.AskForm {
		return res, err
	}
	return sparql.BoolResults(res.Len() > 0), nil
}

// drainStream is the blocking half of the modifier tail.
type drainStream struct {
	q       *sparql.Query
	dict    Dict
	src     RowStream
	vars    []string
	started bool
	rows    [][]rdf.Term
	i       int
	row     []uint32
	err     error
}

// drain materializes src on the first Next and applies the SELECT query's
// GROUP BY, aggregates and ORDER BY with sparql.GroupAndSort. Each output
// row is interned back into dict, aggregates' new terms included, when it
// is pulled.
func drain(q *sparql.Query, dict Dict, src RowStream) RowStream {
	vars := src.Vars()
	if len(q.GroupBy) > 0 || q.HasAggregates() {
		vars = sparql.GroupedVars(q)
	}
	return &drainStream{q: q, dict: dict, src: src, vars: vars}
}

func (s *drainStream) Vars() []string { return s.vars }
func (s *drainStream) Row() []uint32  { return s.row }
func (s *drainStream) Err() error     { return s.err }
func (s *drainStream) Close() error   { return s.src.Close() }

func (s *drainStream) Next() bool {
	if s.err != nil {
		return false
	}
	if !s.started {
		s.started = true
		rel, err := Collect(s.src, s.dict)
		if err == nil {
			rel, err = sparql.GroupAndSort(s.q, rel)
		}
		if err != nil {
			s.err = err
			return false
		}
		s.rows = rel.Rows
	}
	if s.i >= len(s.rows) {
		return false
	}
	row := s.rows[s.i]
	s.row = slices.Grow(s.row[:0], len(row))[:len(row)]
	s.dict.InternRow(row, s.row)
	s.i++
	return true
}
