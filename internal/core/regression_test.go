package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"lusail/internal/client"
	"lusail/internal/federation"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// Regression: the check-query cache key must encode the join variable's
// positions in BOTH patterns with a shared variable mapping. With
// per-pattern normalization, a subject-only check between (?c p ?x)/(?c p
// ?y) and a subject/object check between (?x p ?c)/(?c p ?y) collided on
// one key, so a cached "local" verdict from the first silently suppressed
// the global join the second requires — dropping results (found by the
// randomized property test at this seed).
func TestCheckCacheKeyEncodesVariablePositions(t *testing.T) {
	seed := int64(-6610927066117453342)
	rng := rand.New(rand.NewSource(seed))
	eps, oracle := randomFederation(rng, 2+rng.Intn(3), 12+rng.Intn(12))
	fed := federation.MustNew(eps...)
	e := MustNew(fed, DefaultOptions())
	for trial := 0; trial < 3; trial++ {
		q := randomConjunctiveQuery(rng)
		got, _, err := e.QueryString(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleResults(t, oracle, q)
		got.Rows = sparql.DistinctRows(got.Rows)
		got.Sort()
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("trial %d: %s: got %d rows, want %d", trial, q, len(got.Rows), len(want.Rows))
		}
	}
}

// Regression: an OPTIONAL block's FILTER is its left-join condition and
// sees the variables bound outside the block. It was evaluated on the
// block's own rows, where ?l is unbound, so every extension was dropped:
// the engine answered (a, 1, unbound) where the oracle answers (a, 1, 3).
// The block shares ?x with the stream in the first query (a bound join in
// optional mode) and nothing in the second (a left hash join); either way
// the trace shows one optional span and no per-request batch spans.
func TestOptionalFilterSeesOuterVariables(t *testing.T) {
	lo := []rdf.Triple{
		t3(u("a"), u("lo"), rdf.NewInteger(1)),
		t3(u("b"), u("lo"), rdf.NewInteger(5)),
	}
	hi := []rdf.Triple{
		t3(u("a"), u("hi"), rdf.NewInteger(3)),
		t3(u("a"), u("hi"), rdf.NewInteger(0)),
		t3(u("b"), u("hi"), rdf.NewInteger(3)),
	}
	oracle := store.NewFromTriples(append(append([]rdf.Triple(nil), lo...), hi...))
	opts := DefaultOptions()
	opts.Trace = true
	e := newEngine(t, []*client.InProcess{
		client.NewInProcess("ep0", store.NewFromTriples(lo)),
		client.NewInProcess("ep1", store.NewFromTriples(hi)),
	}, opts)
	for _, q := range []string{
		`PREFIX ub: <http://lubm.org/ub#>
		 SELECT ?x ?l ?h WHERE { ?x ub:lo ?l OPTIONAL { ?x ub:hi ?h FILTER(?h > ?l) } }`,
		`PREFIX ub: <http://lubm.org/ub#>
		 SELECT ?x ?l ?y ?h WHERE { ?x ub:lo ?l OPTIONAL { ?y ub:hi ?h FILTER(?h > ?l) } }`,
	} {
		want := oracleResults(t, oracle, q)
		got, prof := runLusail(t, e, q)
		assertSameResults(t, got, want)
		if n, b := len(obs.FindAll(prof.Trace, "optional")), len(obs.FindAll(prof.Trace, "batch")); n != 1 || b != 0 {
			t.Errorf("%d optional spans and %d batch spans, want 1 and 0", n, b)
		}
		extended := false
		for _, row := range want.Rows {
			extended = extended || !row[len(row)-1].IsZero()
		}
		if !extended {
			t.Fatalf("oracle extends no row of %s; the case tests nothing", q)
		}
	}
}
