package core

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/client"
	"lusail/internal/federation"
	"lusail/internal/lint/leakcheck"
	"lusail/internal/obs"
	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// recorder wraps an endpoint and records the text of every request.
type recorder struct {
	inner client.Endpoint
	mu    *sync.Mutex
	log   *[]string
}

func (e recorder) Name() string { return e.inner.Name() }
func (e recorder) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	e.mu.Lock()
	*e.log = append(*e.log, query)
	e.mu.Unlock()
	return e.inner.QueryStream(ctx, query)
}
func (e recorder) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return client.Collect(ctx, e, query)
}

// switchCase is a bound join of upstream rows over (?x, ?w) into the
// subquery {?x ex:p ?y . ?x a ex:C} at two endpoints. Entity xi lives at
// endpoint i%2; x0's triples are at both, so its subquery row comes back
// from each source. Every xi with i < 8 answers; x8 and x9 answer nothing.
// Its estimates start at 100, a limit D the bindings never exceed.
type switchCase struct {
	t    *testing.T
	e    *Engine
	sq   *Subquery
	log  []string
	mu   sync.Mutex
	dict *rdf.Dict
	rows [][]rdf.Term // upstream
}

func newSwitchCase(t *testing.T, blockSize int) *switchCase {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	parts := make([][]rdf.Triple, 2)
	for i := range 8 {
		x := ex(fmt.Sprintf("x%d", i))
		tr := []rdf.Triple{{S: x, P: ex("p"), O: ex(fmt.Sprintf("y%d", i))}, {S: x, P: rdf.NewIRI(rdf.RDFType), O: ex("C")}}
		parts[i%2] = append(parts[i%2], tr...)
		if i == 0 {
			parts[1] = append(parts[1], tr...)
		}
	}
	c := &switchCase{t: t, dict: rdf.NewDict()}
	var eps []client.Endpoint
	for i, part := range parts {
		eps = append(eps, recorder{client.NewInProcess(fmt.Sprintf("ep%d", i), store.NewFromTriples(part)), &c.mu, &c.log})
	}
	opts := DefaultOptions()
	opts.ValuesBlockSize = blockSize
	c.e = MustNew(federation.MustNew(eps...), opts)
	q, err := sparql.Parse(`SELECT * WHERE { ?x <http://ex/p> ?y . ?x a <http://ex/C> }`)
	if err != nil {
		t.Fatal(err)
	}
	var patterns []sparql.TriplePattern
	for _, el := range q.Where.Elements {
		patterns = append(patterns, el.(sparql.TriplePattern))
	}
	c.sq = &Subquery{Patterns: patterns, Sources: []string{"ep0", "ep1"}, EstCard: 100, CardKnown: true, varCards: []float64{100, 100}}
	for i := range 10 {
		c.rows = append(c.rows, []rdf.Term{ex(fmt.Sprintf("x%d", i)), ex(fmt.Sprintf("w%d", i))})
	}
	return c
}

// run bound-joins the first n upstream rows (and a duplicate of the
// second) into the subquery and returns the joined rows, sorted with their
// duplicates, the requests it sent, and the join's span.
func (c *switchCase) run(n int, optional bool) ([]string, []string, *obs.Span, *Profile) {
	c.t.Helper()
	c.log = nil
	root := obs.NewSpan("test")
	ctx := obs.ContextWithSpan(context.Background(), root)
	rows := append(slices.Clone(c.rows[:n]), c.rows[1])
	src := op.NewSlice([]string{"x", "w"}, op.InternRows(c.dict, rows))
	prof := &Profile{}
	var s op.RowStream
	if optional {
		s = c.e.newOptionalStream(ctx, src, &optionalPlan{sq: c.sq}, c.dict)
	} else {
		s = c.e.newBoundJoinStream(ctx, src, c.sq, c.dict, prof)
	}
	res, err := op.Collect(s, c.dict)
	if err != nil {
		c.t.Fatal(err)
	}
	got := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		got[i] = fmt.Sprint(row)
	}
	slices.Sort(got)
	span := root.Children()[0]
	return got, slices.Clone(c.log), span, prof
}

// values counts the requests that ship a VALUES block.
func values(log []string) int {
	n := 0
	for _, q := range log {
		if strings.Contains(q, "VALUES") {
			n++
		}
	}
	return n
}

// A multi-block bound join whose first block already holds more bindings
// than the subquery's limit D ships no VALUES block: it sends one unbound
// request per source, and the span and profile report the switch.
func TestBoundJoinSwitchesToScan(t *testing.T) {
	c := newSwitchCase(t, 4)
	want, _, _, _ := c.run(10, false)
	if len(want) != 10 { // x0 from both sources, x1 twice upstream, x2..x7
		t.Fatalf("unswitched join: %d rows, want 10", len(want))
	}
	c.sq.EstCard, c.sq.varCards = 3, []float64{3, 9}
	got, log, span, prof := c.run(10, false)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("switched join\n got %v\nwant %v", got, want)
	}
	if len(log) != 2 || values(log) != 0 {
		t.Errorf("%d requests, %d with VALUES; want one unbound request per source:\n%s", len(log), values(log), strings.Join(log, "\n"))
	}
	if n := len(obs.FindAll(span, "batch")); n != 0 {
		t.Errorf("%d batch spans, want none", n)
	}
	for k, v := range map[string]any{"unbound": true, "switch_bindings": 4, "limit": 3, "blocks": 0, "bindings": 0} {
		if got, _ := span.Attr(k); got != v {
			t.Errorf("span %s = %v, want %v", k, got, v)
		}
	}
	if len(obs.FindAll(span, "scan")) != 1 || len(prof.SubqueryStats) != 1 || prof.SubqueryStats[0].Estimated != 3 || prof.SubqueryStats[0].Actual != 9 {
		t.Errorf("the switched scan is not recorded under the span and in the profile: %+v", prof.SubqueryStats)
	}
}

// A bound join that fits one block never switches, even over D: it costs
// the scan's requests and ships at most its rows. A full block that turns
// out to be the last counts as one.
func TestBoundJoinSwitchSkipsOneBlock(t *testing.T) {
	c := newSwitchCase(t, 4)
	c.sq.EstCard, c.sq.varCards = 1, []float64{1, 1}
	for _, n := range []int{2, 3} { // with the duplicate, 3 and 4 upstream rows
		_, log, span, _ := c.run(n, false)
		if len(log) != 2 || values(log) != 2 {
			t.Errorf("%d upstream rows: %d requests, %d with VALUES; want one bound request per source", n+1, len(log), values(log))
		}
		if _, ok := span.Attr("unbound"); ok {
			t.Errorf("%d upstream rows: the one-block join switched", n+1)
		}
	}
}

// Unknown cardinalities and optional mode never switch.
func TestBoundJoinSwitchNeedsKnownMandatory(t *testing.T) {
	c := newSwitchCase(t, 4)
	c.sq.EstCard, c.sq.varCards = 1, []float64{1, 1}
	c.sq.CardKnown = false
	if _, log, _, _ := c.run(10, false); values(log) != 6 {
		t.Errorf("unknown cardinality: %d VALUES requests, want 3 blocks x 2 sources", values(log))
	}
	c.sq.CardKnown = true
	if _, log, _, _ := c.run(10, true); values(log) != 6 {
		t.Errorf("optional mode: %d VALUES requests, want 3 blocks x 2 sources", values(log))
	}
}

// A join that switches after shipping blocks joins each upstream row
// exactly once: it returns the unswitched join's multiset.
func TestBoundJoinSwitchAfterBlocksKeepsMultiset(t *testing.T) {
	c := newSwitchCase(t, 2)
	want, log, _, _ := c.run(10, false)
	if values(log) != 12 {
		t.Fatalf("unswitched: %d VALUES requests, want 6 blocks x 2 sources", values(log))
	}
	// Bindings 2, 4, 6, 8, 10 and 11 after each block: the join switches
	// before the 2nd block, the 3rd, and the last, which is not full.
	for _, c2 := range []struct {
		d      float64
		blocks int
	}{{2, 1}, {5, 2}, {10, 5}} {
		c.sq.EstCard = c2.d
		got, log, span, _ := c.run(10, false)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("D=%g\n got %v\nwant %v", c2.d, got, want)
		}
		if blocks, _ := span.Attr("blocks"); blocks != c2.blocks || values(log) != 2*c2.blocks || len(log) != 2*(c2.blocks+1) {
			t.Errorf("D=%g: %v blocks, %d requests, %d with VALUES; want %d blocks and then the scan", c2.d, blocks, len(log), values(log), c2.blocks)
		}
	}
}

// A bound join of a variable-predicate subquery refines each block's
// sources by that block's own bindings. Upstream x1..x4 and a duplicate
// x2: x1 and x3 live at ep1 alone, x2 and x4 at ep0 alone, so sources
// refined once, by a first block of x1 alone, lost x2's and x4's rows.
func TestBoundJoinRefinesEveryBlock(t *testing.T) {
	q, err := sparql.Parse(`SELECT * WHERE { ?x ?p ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, size := range []int{500, 1} {
		c := newSwitchCase(t, size)
		c.rows = c.rows[1:]
		c.sq = &Subquery{Patterns: []sparql.TriplePattern{q.Where.Elements[0].(sparql.TriplePattern)}, Sources: []string{"ep0", "ep1"}}
		got, _, _, _ := c.run(4, false)
		if want == nil {
			if want = got; len(want) != 10 { // two triples per upstream row
				t.Fatalf("block size %d: %d rows, want 10", size, len(want))
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("block size %d\n got %v\nwant %v", size, got, want)
		}
	}
}

// A block that no source answers is shipped nowhere: the refinement ASK
// carries the block's own bindings, so an answer of false at every
// source means the block has no solution. Upstream x8 and x9 and a
// duplicate x9, which live at no endpoint, in blocks of one: each block
// sends its two ASKs and no SELECT.
func TestBoundJoinRefinedToNoSource(t *testing.T) {
	q, err := sparql.Parse(`SELECT * WHERE { ?x ?p ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	c := newSwitchCase(t, 1)
	c.rows = c.rows[8:]
	c.sq = &Subquery{Patterns: []sparql.TriplePattern{q.Where.Elements[0].(sparql.TriplePattern)}, Sources: []string{"ep0", "ep1"}}
	got, log, span, _ := c.run(2, false)
	asks := 0
	for _, q := range log {
		if strings.HasPrefix(q, "ASK") {
			asks++
		}
	}
	if len(got) != 0 || asks != 6 || len(log) != asks {
		t.Errorf("%d rows, %d requests of which %d ASKs; want no row and 2 ASKs per block for 3 blocks:\n%s", len(got), len(log), asks, strings.Join(log, "\n"))
	}
	if n := len(obs.FindAll(span, "batch")); n != 0 {
		t.Errorf("%d batch spans, want none", n)
	}
}

// twoSources returns a bound join of one upstream row x=a into
// newFuncEngine's subquery over the two sources, in optional mode if
// asked.
func twoSources(t *testing.T, optional bool, fast, slow func(ctx context.Context) funcRows) (op.RowStream, uint32) {
	t.Helper()
	e, sq := newFuncEngine(t, FailFast, fast, slow)
	dict := rdf.NewDict()
	a := exID(dict, "a")
	src := op.NewSlice([]string{"x"}, [][]uint32{{a}})
	if optional {
		return e.newOptionalStream(context.Background(), src, &optionalPlan{sq: sq}, dict), a
	}
	return e.newBoundJoinStream(context.Background(), src, sq, dict, nil), a
}

// A block's joined rows flow as each source decodes them: the join yields
// the first row while the other source still holds back the rest of its
// response.
func TestBoundJoinFirstRowNotHeldForSlowestSource(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	var released atomic.Bool
	safety := time.AfterFunc(10*time.Second, func() { released.Store(true); close(release) })
	defer safety.Stop()
	fast := func(ctx context.Context) funcRows {
		n := 0
		return funcRows{[]string{"x"}, func(dict *rdf.Dict) ([]uint32, error) {
			if n++; n == 1 {
				return []uint32{exID(dict, "a")}, nil
			}
			return nil, io.EOF
		}}
	}
	slow := func(ctx context.Context) funcRows {
		n := 0
		return funcRows{[]string{"x"}, func(dict *rdf.Dict) ([]uint32, error) {
			if n++; n == 1 {
				return []uint32{exID(dict, "a")}, nil
			}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, io.EOF
		}}
	}
	s, a := twoSources(t, false, fast, slow)
	defer s.Close()
	if !s.Next() {
		t.Fatalf("no row: %v", s.Err())
	}
	if released.Load() {
		t.Fatal("the first joined row arrived only once the slow source released the rest")
	}
	if got := s.Row(); len(got) != 1 || got[0] != a {
		t.Errorf("row %v, want [%d]", got, a)
	}
	if safety.Stop() {
		close(release)
	}
	n := 1
	for s.Next() {
		n++
	}
	if err := s.Err(); err != nil || n != 2 {
		t.Errorf("%d rows, Err %v; want one row per source", n, err)
	}
}

// Closing a bound join after its first row, while both sources still
// stream, stops the block's scan: Close returns and no goroutine is left,
// in both modes.
func TestBoundJoinCloseMidBlock(t *testing.T) {
	for _, optional := range []bool{false, true} {
		t.Run(fmt.Sprintf("optional=%v", optional), func(t *testing.T) {
			leakcheck.Check(t)
			var reads [2]atomic.Int64
			s, a := twoSources(t, optional, endless(&reads[0]), endless(&reads[1]))
			if !s.Next() {
				t.Fatalf("no row: %v", s.Err())
			}
			if got := s.Row(); len(got) != 1 || got[0] != a {
				t.Errorf("row %v, want [%d]", got, a)
			}
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if s.Next() {
				t.Error("Next after Close")
			}
		})
	}
}

// BenchmarkBoundJoinBlocks ships n distinct upstream rows to one source,
// which answers nothing: the cost of building the VALUES blocks, whose
// rows are copied once, into the block's table.
func BenchmarkBoundJoinBlocks(b *testing.B) {
	for _, n := range []int{3, 500, 2000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			empty := func(context.Context) funcRows {
				return funcRows{[]string{"x"}, func(*rdf.Dict) ([]uint32, error) { return nil, io.EOF }}
			}
			e, sq := newFuncEngine(b, FailFast, empty)
			dict := rdf.NewDict()
			rows := make([][]uint32, n)
			for i := range rows {
				rows[i] = []uint32{exID(dict, fmt.Sprintf("x%d", i)), exID(dict, fmt.Sprintf("w%d", i))}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				s := e.newBoundJoinStream(context.Background(), op.NewSlice([]string{"x", "w"}, rows), sq, dict, nil)
				for s.Next() {
				}
				if err := s.Err(); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}
