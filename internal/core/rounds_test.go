package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/federation"
	"lusail/internal/qplan"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

func exIRI(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

// twoEndpoints builds ep1 with predicate p, ep2 with predicates p and q.
func twoEndpoints() []client.Endpoint {
	return []client.Endpoint{
		client.NewInProcess("ep1", store.NewFromTriples([]rdf.Triple{
			{S: exIRI("a"), P: exIRI("p"), O: exIRI("b")},
		})),
		client.NewInProcess("ep2", store.NewFromTriples([]rdf.Triple{
			{S: exIRI("c"), P: exIRI("p"), O: exIRI("d")},
			{S: exIRI("c"), P: exIRI("q"), O: exIRI("e")},
		})),
	}
}

func exPattern(pred, s, o string) sparql.TriplePattern {
	return sparql.TriplePattern{S: sparql.Var(s), P: sparql.IRI("http://ex/" + pred), O: sparql.Var(o)}
}

// selected returns each pattern's sources and counts.
func selected(sels []*selection) (sources [][]string, cards []map[string]float64) {
	for _, sel := range sels {
		sources = append(sources, sel.sources)
		cards = append(cards, sel.card)
	}
	return sources, cards
}

// One request per endpoint answers relevance and counts of every counted
// pattern; the fact cache then answers both without a request. A pattern
// past the counted ones wants no counts, and one that repeats a counted
// pattern shares its answer.
func TestFirstRoundOneRequestPerEndpoint(t *testing.T) {
	var m client.Metrics
	var eps []client.Endpoint
	for _, ep := range twoEndpoints() {
		eps = append(eps, client.NewInstrumented(ep, &m))
	}
	e := MustNew(federation.MustNew(eps...), DefaultOptions())
	tps := []sparql.TriplePattern{exPattern("p", "s", "o"), exPattern("q", "s", "o"), exPattern("zzz", "s", "o"), exPattern("q", "a", "b")}
	wantSources := [][]string{{"ep1", "ep2"}, {"ep2"}, nil, {"ep2"}}
	wantCards := []map[string]float64{{"ep1": 1, "ep2": 1}, {"ep2": 1}, {}, {"ep2": 1}}
	for run := 0; run < 2; run++ {
		before := m.Snapshot()
		var prof Profile
		sels, err := e.firstRound(context.Background(), tps, 3, nil, &prof)
		if err != nil {
			t.Fatal(err)
		}
		sources, cards := selected(sels)
		if !reflect.DeepEqual(sources, wantSources) || !reflect.DeepEqual(cards, wantCards) {
			t.Errorf("run %d: sources %v, counts %v; want %v, %v", run, sources, cards, wantSources, wantCards)
		}
		d := m.Snapshot().Sub(before)
		if wantReq := int64(2 * (1 - run)); d.Requests != wantReq || d.Asks != wantReq || prof.CountProbes != 6*(1-run) {
			t.Errorf("run %d: %d requests (%d source selection), %d COUNT cells; want %d, all source selection, and %d cells",
				run, d.Requests, d.Asks, prof.CountProbes, wantReq, 6*(1-run))
		}
	}
}

// Relevance the catalog decides, with a count it holds, needs no cell;
// a relevant endpoint it cannot count gets one. A rejected batch falls
// back to one plain COUNT per pattern, and an endpoint that fails those
// too stays relevant, its count unknown.
func TestFirstRoundCountsFromCatalogAndFallback(t *testing.T) {
	st := catalog.NewStore("", time.Hour)
	st.Put(&catalog.Summary{Endpoint: "ep1", BuiltAt: time.Now(), Triples: 7,
		Predicates: map[string]*catalog.PredicateStat{"http://ex/p": {Triples: 7, Subjects: 7, Objects: 7}}})
	opts := DefaultOptions()
	opts.Catalog = st
	eps := twoEndpoints()
	nb := &noBatches{inner: eps[1]}
	e := MustNew(federation.MustNew(eps[0], nb, down{"dead"}), opts)
	var prof Profile
	sels, err := e.firstRound(resilience.WithWarnings(context.Background()), []sparql.TriplePattern{exPattern("p", "s", "o"), exPattern("q", "s", "o")}, 2, nil, &prof)
	if err != nil {
		t.Fatal(err)
	}
	sources, cards := selected(sels)
	wantSources := [][]string{{"ep1", "ep2", "dead"}, {"ep2", "dead"}}
	wantCards := []map[string]float64{{"ep1": 7, "ep2": 1}, {"ep2": 1}}
	if !reflect.DeepEqual(sources, wantSources) || !reflect.DeepEqual(cards, wantCards) {
		t.Errorf("sources %v, counts %v; want %v, %v", sources, cards, wantSources, wantCards)
	}
	if nb.rejected.Load() != 1 || nb.counts.Load() != 2 || nb.asks.Load() != 0 {
		t.Errorf("%d batches rejected, then %d COUNTs and %d ASKs; want 1, 2, 0", nb.rejected.Load(), nb.counts.Load(), nb.asks.Load())
	}
	// ep2 and dead for both patterns; ep1's count of p is the catalog's.
	if prof.CountProbes != 4 {
		t.Errorf("%d COUNT cells, want 4", prof.CountProbes)
	}
}

// flaky fails its first request and answers the rest.
type flaky struct {
	client.Endpoint
	requests atomic.Int64
}

func (e *flaky) QueryStream(ctx context.Context, q string) (sparql.RowReader, error) {
	if e.requests.Add(1) == 1 {
		return nil, fmt.Errorf("endpoint %s: connection reset", e.Name())
	}
	return e.Endpoint.QueryStream(ctx, q)
}

// An endpoint whose probe failed is a source of the pattern, with a
// warning, for that query only: an outage is not data, so the next query
// asks that endpoint again, and only it, and prunes it when it holds no
// match.
func TestFailedProbeIsAskedAgain(t *testing.T) {
	var m client.Metrics
	var eps []client.Endpoint
	for _, ep := range twoEndpoints() {
		eps = append(eps, client.NewInstrumented(ep, &m))
	}
	fl := &flaky{Endpoint: client.NewInProcess("flaky", store.NewFromTriples([]rdf.Triple{
		{S: exIRI("x"), P: exIRI("r"), O: exIRI("y")},
	}))}
	e := MustNew(federation.MustNew(append(eps, fl)...), DefaultOptions())
	branches, err := qplan.Normalize(sparql.MustParse(`SELECT * WHERE { ?s <http://ex/q> ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	for run, want := range [][]string{{"ep2", "flaky"}, {"ep2"}} {
		ctx := resilience.WithWarnings(context.Background())
		before := m.Snapshot()
		facts, err := e.selectSources(ctx, branches, &Profile{})
		if err != nil {
			t.Fatal(err)
		}
		if got := facts[0].sources[0]; !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: sources %v, want %v", run, got, want)
		}
		if ws := resilience.TakeWarnings(ctx); len(ws) != 1-run {
			t.Errorf("run %d: warnings %+v, want %d", run, ws, 1-run)
		}
		if run == 1 {
			if n := m.Snapshot().Sub(before).Requests; n != 0 || fl.requests.Load() != 2 {
				t.Errorf("second query: %d requests to the healthy endpoints and %d in all to flaky; want 0 and 2", n, fl.requests.Load())
			}
		}
	}
}

// Planning and executing concurrently on one engine, while its facts are
// being cleared, shares one fact cache safely and answers every query as
// the oracle does; run with -race.
func TestConcurrentPlanningSharesFacts(t *testing.T) {
	eps, oracle := paperFederation(true)
	e := newEngine(t, eps, DefaultOptions())
	queries := []string{qa,
		`PREFIX ub: <http://lubm.org/ub#>
		SELECT ?S ?A WHERE { ?S ub:advisor ?P . ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A . FILTER(STR(?A) != "AddrB") }`,
		`PREFIX ub: <http://lubm.org/ub#>
		SELECT ?P ?U ?A WHERE { ?P ub:PhDDegreeFrom ?U . OPTIONAL { ?U ub:address ?A } }`,
		`PREFIX ub: <http://lubm.org/ub#>
		SELECT ?X WHERE { { ?X ub:teacherOf ?C } UNION { ?X ub:takesCourse ?C } }`,
	}
	want := make([]*sparql.Results, len(queries))
	for i, q := range queries {
		want[i] = oracleResults(t, oracle, q)
	}
	done := make(chan struct{})
	var clears sync.WaitGroup
	clears.Add(1)
	go func() {
		defer clears.Done()
		for {
			select {
			case <-done:
				return
			default:
				e.ClearCaches()
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (w + i) % len(queries)
				got, _, err := e.QueryString(context.Background(), queries[k])
				if err != nil {
					t.Error(err)
					return
				}
				got.Rows = sparql.DistinctRows(got.Rows)
				got.Sort()
				if !reflect.DeepEqual(got.Rows, want[k].Rows) {
					t.Errorf("worker %d query %d: %d rows, want %d", w, k, len(got.Rows), len(want[k].Rows))
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	clears.Wait()
}

func TestSourceSetHelpers(t *testing.T) {
	if !sameSources([]string{"b", "a"}, []string{"a", "b"}) {
		t.Error("sameSources should ignore order")
	}
	if sameSources([]string{"a"}, []string{"a", "b"}) {
		t.Error("different lengths are not same")
	}
	if sameSources([]string{"a", "c"}, []string{"a", "b"}) {
		t.Error("different names are not same")
	}
	got := intersectSources([]string{"a", "b", "c"}, []string{"c", "a"})
	if !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("intersectSources = %v", got)
	}
}
