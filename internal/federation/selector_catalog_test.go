package federation_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/federation"
	"lusail/internal/obs"
	"lusail/internal/sparql"
)

// summary is a hand-made catalog summary of one endpoint holding n triples
// of each predicate; a truncated one can prove relevance but neither
// irrelevance nor a count.
func summary(endpoint string, truncated bool, n int64, preds ...string) *catalog.Summary {
	s := &catalog.Summary{Endpoint: endpoint, BuiltAt: time.Now(), Predicates: map[string]*catalog.PredicateStat{}}
	s.Capabilities.Truncated = truncated
	for _, p := range preds {
		s.Predicates["http://ex/"+p] = &catalog.PredicateStat{Triples: n, Subjects: n, Objects: n}
		s.Triples += n
	}
	return s
}

func newCatalog(sums ...*catalog.Summary) *catalog.Store {
	st := catalog.NewStore("", time.Hour)
	for _, s := range sums {
		st.Put(s)
	}
	return st
}

// withCatalog returns an engine over the federation with the catalog.
func withCatalog(fed *federation.Federation, st *catalog.Store) *core.Engine {
	opts := core.DefaultOptions()
	opts.Catalog = st
	return core.MustNew(fed, opts)
}

// failingEndpoint errors on every query, standing in for an unreachable
// remote endpoint.
type failingEndpoint struct{ name string }

func (e *failingEndpoint) Name() string { return e.name }
func (e *failingEndpoint) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	return nil, fmt.Errorf("endpoint %s: connection refused", e.name)
}
func (e *failingEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return client.Collect(ctx, e, query)
}

func TestCatalogTierFullHit(t *testing.T) {
	var m client.Metrics
	// ep1's summary proves q absent, ep2's proves it present.
	e := withCatalog(instrumented(twoEndpointFed(), &m), newCatalog(summary("ep1", false, 1, "p"), summary("ep2", false, 1, "p", "q")))
	if got := mustSources(t, e, pattern("q", "s", "o")); !reflect.DeepEqual(got, []string{"ep2"}) {
		t.Errorf("sources = %v, want [ep2]", got)
	}
	if n := m.Snapshot().Requests; n != 0 {
		t.Errorf("catalog full hit issued %d requests, want 0", n)
	}
}

func TestCatalogTierPartial(t *testing.T) {
	var m client.Metrics
	// ep1 has no summary and must be probed; ep2 is answered by the
	// catalog without traffic.
	e := withCatalog(instrumented(twoEndpointFed(), &m), newCatalog(summary("ep2", false, 1, "p", "q")))
	if got := mustSources(t, e, pattern("p", "s", "o")); !reflect.DeepEqual(got, []string{"ep1", "ep2"}) {
		t.Errorf("sources = %v, want [ep1 ep2]", got)
	}
	if n := m.Snapshot().Asks; n != 1 {
		t.Errorf("partial hit issued %d source-selection requests, want 1 (only the undecided endpoint)", n)
	}
}

func TestCatalogOverApproximationIsHarmless(t *testing.T) {
	// The catalog claims both endpoints hold q, which only ep2 does: the
	// source list over-approximates but stays a superset of the true one,
	// and the answer is the probe path's.
	var m client.Metrics
	fed := instrumented(twoEndpointFed(), &m)
	e := withCatalog(fed, newCatalog(summary("ep1", false, 1, "p", "q"), summary("ep2", false, 1, "p", "q")))
	if got := mustSources(t, e, pattern("q", "s", "o")); !reflect.DeepEqual(got, []string{"ep1", "ep2"}) {
		t.Errorf("sources = %v", got)
	}
	if n := m.Snapshot().Requests; n != 0 {
		t.Errorf("issued %d requests, want 0", n)
	}
	got, _, err := e.Query(context.Background(), query(pattern("q", "s", "o")))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.MustNew(fed, core.DefaultOptions()).Query(context.Background(), query(pattern("q", "s", "o")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("rows %v, want %v", got.Rows, want.Rows)
	}
}

func TestCatalogResultsAreCached(t *testing.T) {
	decided := obs.Default().Counter(obs.MetricCatalogSourceHits, "")
	e := withCatalog(twoEndpointFed(), newCatalog(summary("ep1", false, 1, "p"), summary("ep2", false, 1, "q")))
	mustSources(t, e, pattern("p", "s", "o"))
	first := decided.Value()
	mustSources(t, e, pattern("p", "s", "o"))
	if n := decided.Value() - first; n != 0 {
		t.Errorf("second lookup consulted the catalog %d times, want a cache hit", n)
	}
}

func TestProbeFailureDegrades(t *testing.T) {
	// One endpoint down: it is conservatively kept as a source, with a
	// warning, and planning proceeds instead of aborting.
	good := twoEndpointFed()
	e := core.MustNew(federation.MustNew(good.Get("ep1"), good.Get("ep2"), &failingEndpoint{name: "down"}), core.DefaultOptions())
	got, warnings, err := sourcesOf(context.Background(), e, pattern("q", "s", "o"))
	if err != nil {
		t.Fatalf("single probe failure aborted the query: %v", err)
	}
	if !reflect.DeepEqual(got, []string{"ep2", "down"}) {
		t.Errorf("sources = %v, want [ep2 down] (failed endpoint kept conservatively)", got)
	}
	if len(warnings) != 1 || warnings[0].Endpoint != "down" {
		t.Errorf("warnings = %+v, want one about down", warnings)
	}
}

func TestAllProbesFailing(t *testing.T) {
	e := core.MustNew(federation.MustNew(&failingEndpoint{name: "a"}, &failingEndpoint{name: "b"}), core.DefaultOptions())
	_, _, err := sourcesOf(context.Background(), e, pattern("p", "s", "o"))
	var ee *client.EndpointError
	if !errors.As(err, &ee) || ee.Phase != client.PhaseSourceSelection {
		t.Fatalf("err = %v; all probes failing should abort with a source-selection EndpointError, not degrade", err)
	}
}

func TestProbeCancellationAborts(t *testing.T) {
	e := core.MustNew(twoEndpointFed(), core.DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := sourcesOf(ctx, e, pattern("p", "s", "o"))
	if err == nil {
		t.Fatal("cancelled selection should error, not return a partial source list")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestSelectorCatalogRace exercises concurrent source selection against
// the shared fact cache and a catalog whose summaries are being replaced
// and dropped, with the cache cleared along the way; run with -race.
func TestSelectorCatalogRace(t *testing.T) {
	st := newCatalog(summary("ep1", false, 1, "p"))
	e := withCatalog(twoEndpointFed(), st)
	patterns := []sparql.TriplePattern{
		pattern("p", "s", "o"),
		pattern("q", "s", "o"),
		{S: sparql.IRI("http://ex/c"), P: sparql.IRI("http://ex/q"), O: sparql.Var("o")},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 4 {
				case 0:
					st.Put(summary("ep1", false, 1, "p"))
				case 1:
					st.Drop("ep1")
				}
				if _, _, err := sourcesOf(context.Background(), e, patterns[(w+i)%len(patterns)]); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					e.ClearCaches()
				}
			}
		}(w)
	}
	wg.Wait()
}
