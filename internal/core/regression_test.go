package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"lusail/internal/federation"
	"lusail/internal/sparql"
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
