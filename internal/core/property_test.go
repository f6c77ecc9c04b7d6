package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lusail/internal/client"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// randomFederation builds a random decentralized graph with authoritative
// placement: every triple lives at the endpoint owning its subject, while
// objects freely reference entities owned by other endpoints (the Linked
// Data interlink model of the paper's Figure 1).
func randomFederation(rng *rand.Rand, nEndpoints, nEntities int) ([]client.Endpoint, *store.Store) {
	return federationOf(randomParts(rng, nEndpoints, nEntities))
}

// randomParts generates randomFederation's triples, one slice per
// endpoint: every triple at the endpoint owning its subject.
func randomParts(rng *rand.Rand, nEndpoints, nEntities int) [][]rdf.Triple {
	preds := []rdf.Term{
		rdf.NewIRI("http://ex/p0"),
		rdf.NewIRI("http://ex/p1"),
		rdf.NewIRI("http://ex/p2"),
	}
	classes := []rdf.Term{
		rdf.NewIRI("http://ex/ClassA"),
		rdf.NewIRI("http://ex/ClassB"),
	}
	typ := rdf.NewIRI(rdf.RDFType)

	entity := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/e%d", i)) }
	owner := make([]int, nEntities)
	for i := range owner {
		owner[i] = rng.Intn(nEndpoints)
	}
	parts := make([][]rdf.Triple, nEndpoints)
	add := func(ep int, t rdf.Triple) {
		parts[ep] = append(parts[ep], t)
	}
	for i := 0; i < nEntities; i++ {
		ep := owner[i]
		add(ep, rdf.Triple{S: entity(i), P: typ, O: classes[rng.Intn(len(classes))]})
		nLinks := rng.Intn(4)
		for l := 0; l < nLinks; l++ {
			target := rng.Intn(nEntities) // may live anywhere: interlinks
			add(ep, rdf.Triple{S: entity(i), P: preds[rng.Intn(len(preds))], O: entity(target)})
		}
		if rng.Intn(2) == 0 {
			add(ep, rdf.Triple{
				S: entity(i),
				P: rdf.NewIRI("http://ex/label"),
				O: rdf.NewLiteral(fmt.Sprintf("label%d", rng.Intn(5))),
			})
		}
	}
	return parts
}

// federationOf serves each part at its own endpoint, ep0, ep1, …, and
// returns the endpoints with their union graph, a set.
func federationOf(parts [][]rdf.Triple) ([]client.Endpoint, *store.Store) {
	oracle := store.New()
	eps := make([]client.Endpoint, len(parts))
	for i, part := range parts {
		oracle.AddAll(part)
		eps[i] = client.NewInProcess(fmt.Sprintf("ep%d", i), store.NewFromTriples(part))
	}
	return eps, oracle
}

// randomConjunctiveQuery builds a random chain or star query over the
// federation's vocabulary.
func randomConjunctiveQuery(rng *rand.Rand) string {
	preds := []string{"http://ex/p0", "http://ex/p1", "http://ex/p2"}
	n := 2 + rng.Intn(3)
	q := "SELECT * WHERE { "
	if rng.Intn(2) == 0 {
		// Chain: ?x0 p ?x1 . ?x1 q ?x2 ...
		for i := 0; i < n; i++ {
			q += fmt.Sprintf("?x%d <%s> ?x%d . ", i, preds[rng.Intn(len(preds))], i+1)
		}
	} else {
		// Star: ?c p ?x_i; occasionally reversed arms.
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				q += fmt.Sprintf("?x%d <%s> ?c . ", i, preds[rng.Intn(len(preds))])
			} else {
				q += fmt.Sprintf("?c <%s> ?x%d . ", preds[rng.Intn(len(preds))], i)
			}
		}
	}
	if rng.Intn(3) == 0 {
		q += "?c <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/ClassA> . "
	}
	q += "}"
	return q
}

// Lemma 1 + Lemma 2 property: for any federation with authoritative
// placement and any conjunctive query, Lusail's answer equals centralized
// evaluation over the union graph (no missing results from locality
// decisions, no spurious results from extraneous GJVs).
func TestFederatedMatchesCentralizedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eps, oracle := randomFederation(rng, 2+rng.Intn(3), 12+rng.Intn(12))
		fed := federation.MustNew(eps...)
		e := MustNew(fed, DefaultOptions())
		for trial := 0; trial < 3; trial++ {
			q := randomConjunctiveQuery(rng)
			got, _, err := e.QueryString(context.Background(), q)
			if err != nil {
				t.Logf("seed %d query %s: %v", seed, q, err)
				return false
			}
			want := oracleResults(t, oracle, q)
			got.Rows = sparql.DistinctRows(got.Rows)
			got.Sort()
			if !reflect.DeepEqual(got.Vars, want.Vars) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Logf("seed %d mismatch on %s:\n got %d rows\nwant %d rows", seed, q, len(got.Rows), len(want.Rows))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The same property under every threshold mode and with SAPE disabled,
// each planned from warm facts — one engine across all the queries — and
// from cold ones — a fresh engine per query: planning choices must never
// change answers, and warm and cold runs return the same multiset.
func TestPlanningChoicesNeverChangeAnswersProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eps, oracle := randomFederation(rng, 3, 20)
	fed := federation.MustNew(eps...)
	queries := make([]string, 6)
	for i := range queries {
		queries[i] = randomConjunctiveQuery(rng)
	}
	configs := []Options{
		DefaultOptions(),
		{Threshold: ThresholdMu, ValuesBlockSize: 2},
		{Threshold: ThresholdMu2Sigma, ValuesBlockSize: 7},
		{Threshold: ThresholdOutliers, ValuesBlockSize: 100},
		{DisableSAPE: true, ValuesBlockSize: 3},
	}
	run := func(e *Engine, q string) ([][]rdf.Term, *Profile) {
		t.Helper()
		got, prof, err := e.QueryString(context.Background(), q)
		if err != nil {
			t.Fatalf("query %s: %v", q, err)
		}
		got.Sort()
		return got.Rows, prof
	}
	for ci, opts := range configs {
		warm := MustNew(fed, opts)
		warmCells, coldCells := 0, 0
		for _, q := range queries {
			w, wp := run(warm, q)
			c, cp := run(MustNew(fed, opts), q)
			warmCells += wp.CountProbes
			coldCells += cp.CountProbes
			if !reflect.DeepEqual(w, c) {
				t.Errorf("config %d query %s: warm facts give %d rows, cold %d", ci, q, len(w), len(c))
			}
			if want := oracleResults(t, oracle, q); !reflect.DeepEqual(sparql.DistinctRows(w), want.Rows) {
				t.Errorf("config %d query %s: %d distinct rows, want %d", ci, q, len(sparql.DistinctRows(w)), len(want.Rows))
			}
		}
		if warmCells >= coldCells {
			t.Errorf("config %d: warm engine asked %d COUNT cells, cold ones %d; warm facts never answered", ci, warmCells, coldCells)
		}
	}
}

// Tiny VALUES block sizes exercise the bound-join block partitioning.
func TestBoundJoinBlockPartitioning(t *testing.T) {
	eps, oracle := paperFederation(true)
	opts := DefaultOptions()
	opts.ValuesBlockSize = 1
	e := newEngine(t, eps, opts)
	got, _ := runLusail(t, e, qa)
	want := oracleResults(t, oracle, qa)
	assertSameResults(t, got, want)
}
