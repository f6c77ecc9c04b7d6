package core

import (
	"context"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lusail/internal/eval"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// bagResults runs q over the union graph and returns its rows sorted, as
// a multiset: duplicates are kept.
func bagResults(t *testing.T, oracle *store.Store, q string) *sparql.Results {
	t.Helper()
	res, err := eval.New(oracle).QueryString(q)
	if err != nil {
		t.Fatalf("oracle: %s: %v", q, err)
	}
	res.Sort()
	return res
}

// sameBag reports whether two sorted results hold the same rows.
func sameBag(got, want *sparql.Results) bool {
	return reflect.DeepEqual(got.Vars, want.Vars) && len(got.Rows) == len(want.Rows) &&
		(len(got.Rows) == 0 || reflect.DeepEqual(got.Rows, want.Rows))
}

// replicate copies about a third of each endpoint's triples to one other
// endpoint: the same triple held at two endpoints, as with replicated
// fragments.
func replicate(rng *rand.Rand, parts [][]rdf.Triple) {
	n := len(parts)
	copies := make([][]rdf.Triple, n)
	for i, part := range parts {
		for _, tr := range part {
			if rng.Intn(3) == 0 {
				j := (i + 1 + rng.Intn(n-1)) % n
				copies[j] = append(copies[j], tr)
			}
		}
	}
	for j := range parts {
		parts[j] = append(parts[j], copies[j]...)
	}
}

var queryVar = regexp.MustCompile(`\?\w+`)

// bagProjection replaces a query's SELECT * with a random non-empty
// subset of its variables, so that solutions differing only in the
// dropped variables answer as equal rows; half the time it keeps *.
func bagProjection(rng *rand.Rand, q string) string {
	if rng.Intn(2) == 0 {
		return q
	}
	var vars []string
	for _, v := range queryVar.FindAllString(q, -1) {
		if !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
	}
	var keep []string
	for _, v := range vars {
		if rng.Intn(2) == 0 {
			keep = append(keep, v)
		}
	}
	if len(keep) == 0 {
		keep = vars[:1]
	}
	return strings.Replace(q, "SELECT *", "SELECT "+strings.Join(keep, " "), 1)
}

// Lemmas 1 and 2 over multisets: with about a third of the triples held
// at two endpoints, and with projections that keep duplicate rows, Lusail
// returns every row as often as evaluation over the union graph does. The
// endpoints answer plain SELECTs, so a replicated triple reaches the
// engine twice and only the branch tail's Dedup may remove it; a
// projection then must keep the multiplicity of the solutions it merges.
func TestReplicatedTriplesMultisetProperty(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		parts := randomParts(rng, 2+rng.Intn(3), 12+rng.Intn(12))
		replicate(rng, parts)
		eps, oracle := federationOf(parts)
		queries := []string{
			// An OPTIONAL arm whose pattern may be replicated.
			"SELECT ?x1 ?l WHERE { ?x0 <http://ex/p0> ?x1 . OPTIONAL { ?x1 <http://ex/label> ?l } }",
		}
		for range 4 {
			queries = append(queries, bagProjection(rng, randomConjunctiveQuery(rng)))
		}
		for _, block := range []int{DefaultOptions().ValuesBlockSize, 1} {
			opts := DefaultOptions()
			opts.ValuesBlockSize = block
			e := MustNew(federation.MustNew(eps...), opts)
			for _, q := range queries {
				got, _, err := e.QueryString(context.Background(), q)
				if err != nil {
					t.Fatalf("seed %d block %d %s: %v", seed, block, q, err)
				}
				got.Sort()
				want := bagResults(t, oracle, q)
				if !sameBag(got, want) {
					t.Errorf("seed %d block %d %s:\n got %d rows %v\nwant %d rows %v", seed, block, q, len(got.Rows), got.Rows, len(want.Rows), want.Rows)
				}
			}
		}
	}
}

// The query's VALUES is a multiset: a row written twice, or two rows that
// UNDEF makes join the same solution, answer twice, while a triple held
// at both endpoints still answers once per VALUES row.
func TestValuesMultiplicityKept(t *testing.T) {
	p := func(s, o string) rdf.Triple {
		return rdf.Triple{S: rdf.NewIRI("http://ex/" + s), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/" + o)}
	}
	parts := [][]rdf.Triple{
		{p("x1", "a")},
		{p("x1", "a"), p("x2", "a"), p("x3", "b")},
	}
	eps, oracle := federationOf(parts)
	e := MustNew(federation.MustNew(eps...), DefaultOptions())
	for _, tc := range []struct {
		query string
		rows  int
	}{
		{`PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y . VALUES ?y { ex:a ex:a } }`, 4},
		{`PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y . VALUES (?x ?y) { (UNDEF ex:a) (ex:x1 ex:a) } }`, 3},
		{`PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:p ?y . VALUES ?y { ex:a ex:b ex:a } }`, 5},
	} {
		got, _, err := e.QueryString(context.Background(), tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		got.Sort()
		want := bagResults(t, oracle, tc.query)
		if len(want.Rows) != tc.rows {
			t.Fatalf("%s: oracle answers %d rows, the case expects %d", tc.query, len(want.Rows), tc.rows)
		}
		if !sameBag(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.query, got.Rows, want.Rows)
		}
	}
}
