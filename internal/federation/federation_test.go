package federation_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/federation"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// The registry is this package. The other tests here select sources over a
// federation through the engine's public API: they plan one-pattern
// queries and read the pattern's sources off the plan's one subquery.

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

// twoEndpointFed builds EP1 with predicate p, EP2 with predicates p and q.
func twoEndpointFed() *federation.Federation {
	ep1 := client.NewInProcess("ep1", store.NewFromTriples([]rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("b")},
	}))
	ep2 := client.NewInProcess("ep2", store.NewFromTriples([]rdf.Triple{
		{S: iri("c"), P: iri("p"), O: iri("d")},
		{S: iri("c"), P: iri("q"), O: iri("e")},
	}))
	return federation.MustNew(ep1, ep2)
}

func pattern(pred, s, o string) sparql.TriplePattern {
	return sparql.TriplePattern{S: sparql.Var(s), P: sparql.IRI("http://ex/" + pred), O: sparql.Var(o)}
}

// query is SELECT * over the patterns.
func query(tps ...sparql.TriplePattern) *sparql.Query {
	q := sparql.NewSelect()
	q.Star = true
	for _, tp := range tps {
		q.Where.Elements = append(q.Where.Elements, tp)
	}
	return q
}

// sourcesOf plans the one-pattern query and returns the pattern's sources
// and the warnings planning recorded.
func sourcesOf(ctx context.Context, e *core.Engine, tp sparql.TriplePattern) ([]string, []resilience.Warning, error) {
	ctx = resilience.WithWarnings(ctx)
	p, err := e.Plan(ctx, query(tp))
	if err != nil {
		return nil, nil, err
	}
	var sources []string
	for _, sq := range p.Decomposition() {
		// A subquery renders as {tp}@[ep1,ep2].
		list := strings.TrimSuffix(sq[strings.LastIndex(sq, "@[")+2:], "]")
		sources = strings.Split(list, ",")
	}
	return sources, resilience.TakeWarnings(ctx), nil
}

func mustSources(t *testing.T, e *core.Engine, tp sparql.TriplePattern) []string {
	t.Helper()
	got, _, err := sourcesOf(context.Background(), e, tp)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func instrumented(f *federation.Federation, m *client.Metrics) *federation.Federation {
	var eps []client.Endpoint
	for _, ep := range f.Endpoints() {
		eps = append(eps, client.NewInstrumented(ep, m))
	}
	return federation.MustNew(eps...)
}

func TestFederationRegistry(t *testing.T) {
	f := twoEndpointFed()
	if f.Size() != 2 {
		t.Errorf("Size = %d", f.Size())
	}
	if got := f.Names(); !reflect.DeepEqual(got, []string{"ep1", "ep2"}) {
		t.Errorf("Names = %v", got)
	}
	if f.Get("ep2") == nil || f.Get("nope") != nil {
		t.Error("Get lookup wrong")
	}
	if g := twoEndpointFed(); g.Epoch() == f.Epoch() {
		t.Error("two federations share an epoch")
	}
}

func TestFederationDuplicateNames(t *testing.T) {
	ep := client.NewInProcess("dup", store.New())
	if _, err := federation.New(ep, client.NewInProcess("dup", store.New())); err == nil {
		t.Error("duplicate names should error")
	}
}

func TestRelevantSources(t *testing.T) {
	e := core.MustNew(twoEndpointFed(), core.DefaultOptions())
	if got := mustSources(t, e, pattern("p", "s", "o")); !reflect.DeepEqual(got, []string{"ep1", "ep2"}) {
		t.Errorf("sources for p = %v", got)
	}
	if got := mustSources(t, e, pattern("q", "s", "o")); !reflect.DeepEqual(got, []string{"ep2"}) {
		t.Errorf("sources for q = %v", got)
	}
	if got := mustSources(t, e, pattern("zzz", "s", "o")); len(got) != 0 {
		t.Errorf("sources for zzz = %v", got)
	}
}

func TestSourceSelectionCache(t *testing.T) {
	var m client.Metrics
	e := core.MustNew(instrumented(twoEndpointFed(), &m), core.DefaultOptions())
	hits := obs.Default().Counter(obs.MetricSourceCacheHits, "")

	mustSources(t, e, pattern("p", "s", "o"))
	first := m.Snapshot()
	// A structurally identical pattern with different variable names must
	// hit the cache.
	h0 := hits.Value()
	mustSources(t, e, pattern("p", "x", "y"))
	if d := m.Snapshot().Sub(first); d.Requests != 0 || hits.Value()-h0 != 1 {
		t.Errorf("normalized-identical pattern: %d requests, %d cache hits; want 0 and 1", d.Requests, hits.Value()-h0)
	}
	e.ClearCaches()
	before := m.Snapshot()
	mustSources(t, e, pattern("p", "x", "y"))
	if d := m.Snapshot().Sub(before); d.Asks != 2 {
		t.Errorf("after ClearCaches: %d source-selection requests, want 2", d.Asks)
	}
}
