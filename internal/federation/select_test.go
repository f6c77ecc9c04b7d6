package federation_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/federation"
	"lusail/internal/obs"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
)

// One request per endpoint answers relevance and counts of every pattern
// of every branch; the cache then answers both without a request.
func TestSelectSourcesOneRequestPerEndpoint(t *testing.T) {
	var m client.Metrics
	e := core.MustNew(instrumented(twoEndpointFed(), &m), core.DefaultOptions())
	q := sparql.MustParse(`SELECT * WHERE {
		{ ?s <http://ex/p> ?o } UNION { ?s <http://ex/q> ?o } UNION { ?s <http://ex/zzz> ?o } UNION { ?a <http://ex/q> ?b } }`)
	for run := 0; run < 2; run++ {
		before := m.Snapshot()
		_, prof, err := e.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		// Three distinct patterns at two endpoints; p and q's branches
		// each have one subquery.
		d := m.Snapshot().Sub(before)
		if wantReq := int64(2 * (1 - run)); d.Asks != wantReq || prof.CountProbes != 6*(1-run) {
			t.Errorf("run %d: %d source-selection requests, %d COUNT cells; want %d and %d",
				run, d.Asks, prof.CountProbes, wantReq, 6*(1-run))
		}
		want := []string{"{?s <http://ex/p> ?o}@[ep1,ep2]", "{?s <http://ex/q> ?o}@[ep2]", "{?a <http://ex/q> ?b}@[ep2]"}
		if !reflect.DeepEqual(prof.Decomposition, want) {
			t.Errorf("run %d: decomposition %q, want %q", run, prof.Decomposition, want)
		}
	}
}

// A pattern that repeats within one query is selected once and counts as
// neither a cache hit nor a miss.
func TestInCallDuplicatesAreNotCacheHits(t *testing.T) {
	hits, misses := obs.Default().Counter(obs.MetricSourceCacheHits, ""), obs.Default().Counter(obs.MetricSourceCacheMisses, "")
	h0, m0 := hits.Value(), misses.Value()
	e := core.MustNew(twoEndpointFed(), core.DefaultOptions())
	if _, err := e.Plan(context.Background(), query(pattern("p", "s", "o"), pattern("p", "x", "y"))); err != nil {
		t.Fatal(err)
	}
	if h, m := hits.Value()-h0, misses.Value()-m0; h != 0 || m != 1 {
		t.Errorf("cold selection of two equal patterns: %d hits, %d misses; want 0 and 1", h, m)
	}
}

// Catalog-decided relevance with a catalog count needs no cell; without
// one, a counted pattern gets a count cell and an uncounted one nothing.
func TestSelectSourcesCatalogCounts(t *testing.T) {
	var m client.Metrics
	opts := core.DefaultOptions()
	// Both endpoints are relevant for p and q by the catalog; only ep1's
	// summary can count them. q, in an OPTIONAL block, wants no count.
	opts.Catalog = newCatalog(summary("ep1", false, 7, "p", "q"), summary("ep2", true, 1, "p", "q"))
	e := core.MustNew(instrumented(twoEndpointFed(), &m), opts)
	_, prof, err := e.QueryString(context.Background(), `SELECT * WHERE { ?s <http://ex/p> ?o OPTIONAL { ?s <http://ex/q> ?x } }`)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Snapshot(); d.Asks != 1 || prof.CountProbes != 1 || prof.CatalogHits != 1 {
		t.Errorf("%d source-selection requests, %d COUNT cells, %d catalog counts; want 1, 1, 1", d.Asks, prof.CountProbes, prof.CatalogHits)
	}
}

// noBatch rejects requests of several COUNT cells and counts the rest.
type noBatch struct {
	client.Endpoint
	rejected, counts, asks atomic.Int64
}

func (e *noBatch) QueryStream(ctx context.Context, q string) (sparql.RowReader, error) {
	switch {
	case strings.Count(q, "COUNT(") > 1:
		e.rejected.Add(1)
		return nil, errors.New("unsupported query form")
	case sparql.IsAsk(q):
		e.asks.Add(1)
	default:
		e.counts.Add(1)
	}
	return e.Endpoint.QueryStream(ctx, q)
}

// A rejected batch is re-sent as one plain COUNT per pattern, with no ASK;
// an endpoint that fails those too stays relevant, with a warning.
func TestFailedBatchFallsBackToPlainCounts(t *testing.T) {
	eps := twoEndpointFed().Endpoints()
	nb := &noBatch{Endpoint: eps[1]}
	e := core.MustNew(federation.MustNew(eps[0], nb, &failingEndpoint{name: "dead"}), core.DefaultOptions())
	ctx := resilience.WithWarnings(context.Background())
	p, err := e.Plan(ctx, query(pattern("p", "s", "o"), pattern("q", "s", "x")))
	if err != nil {
		t.Fatal(err)
	}
	if nb.rejected.Load() != 1 || nb.counts.Load() != 2 || nb.asks.Load() != 0 {
		t.Errorf("%d batches rejected, then %d COUNTs and %d ASKs; want 1, 2, 0", nb.rejected.Load(), nb.counts.Load(), nb.asks.Load())
	}
	// p's sources are ep1, ep2 and dead, q's ep2 and dead: the patterns
	// cannot share a subquery.
	want := []string{"{?s <http://ex/p> ?o}@[ep1,ep2,dead]", "{?s <http://ex/q> ?x}@[ep2,dead]"}
	if got := p.Decomposition(); !reflect.DeepEqual(got, want) {
		t.Errorf("decomposition %q, want %q", got, want)
	}
	if ws := resilience.TakeWarnings(ctx); len(ws) != 2 || ws[0].Endpoint != "dead" || ws[0].Phase != client.PhaseSourceSelection {
		t.Errorf("warnings = %+v, want one source-selection warning about dead per pattern", ws)
	}
}
