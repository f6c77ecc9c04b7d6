package eval_test

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"lusail/internal/bench"
	"lusail/internal/eval"
	"lusail/internal/rdf"
	"lusail/internal/store"
)

// countingGraph counts the calls the evaluator makes into its graph.
type countingGraph struct {
	store.Graph
	match, matchIDs, countIDs atomic.Int64
}

func (g *countingGraph) Match(s, p, o *rdf.Term, fn func(rdf.Triple) bool) {
	g.match.Add(1)
	g.Graph.Match(s, p, o, fn)
}

func (g *countingGraph) MatchIDs(s, p, o uint32, fn func(s, p, o uint32) bool) {
	g.matchIDs.Add(1)
	g.Graph.MatchIDs(s, p, o, fn)
}

func (g *countingGraph) CountIDs(s, p, o uint32) int {
	g.countIDs.Add(1)
	return g.Graph.CountIDs(s, p, o)
}

// TestJoinOrderIgnoresSpelling pins the store calls for LUBM Q2 (the
// student-advisor-course triangle with three class patterns) over the
// union of a two-university federation, in the spelling with the rdf:type
// patterns first and in the types-last spelling the benchmark's oracle
// uses. At 10k triples, with predicates above 999 triples, the parent's
// order (bound positions, then predicate counts capped at 999, then
// position) made 31,801 Match calls for types-first, because it crossed
// whole classes before joining them, and 4,201 for types-last. Ordering
// by CountIDs along join variables makes the spelling irrelevant.
func TestJoinOrderIgnoresSpelling(t *testing.T) {
	cfg := bench.DefaultLUBM(2)
	cfg.DeptsPerUniv, cfg.ProfsPerDept, cfg.StudentsPerDept = 4, 6, 150
	var union []rdf.Triple
	for _, ds := range bench.GenerateLUBM(cfg) {
		union = append(union, ds.Triples...)
	}
	st := store.NewFromTriples(union)
	var q2 string
	for _, q := range bench.LUBMQueries() {
		if q.Name == "Q2" {
			q2 = q.Text
		}
	}
	// Move the three rdf:type lines behind the join patterns.
	var types, rest []string
	for _, line := range strings.Split(q2, "\n") {
		if strings.Contains(line, "rdf:type") {
			types = append(types, line)
		} else {
			rest = append(rest, line)
		}
	}
	last := len(rest) - 1 // the closing brace
	typesLast := strings.Join(append(append(rest[:last:last], types...), rest[last]), "\n")

	want := map[string][2]int64{ // spelling -> {MatchIDs, CountIDs}
		"types-first": {1273, 6},
		"types-last":  {1273, 6},
	}
	var results []any
	for name, text := range map[string]string{"types-first": q2, "types-last": typesLast} {
		g := &countingGraph{Graph: st}
		res, err := eval.New(g).QueryString(text)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no answers", name)
		}
		res.Sort()
		results = append(results, res.Rows)
		got := [2]int64{g.matchIDs.Load(), g.countIDs.Load()}
		if got != want[name] || g.match.Load() != 0 {
			t.Errorf("%s: MatchIDs, CountIDs = %v, Match = %d; want %v and no Match", name, got, g.match.Load(), want[name])
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("the two spellings answer differently")
	}
}
