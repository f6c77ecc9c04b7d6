package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/erh"
	"lusail/internal/federation"
	"lusail/internal/qplan"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// malformedCounts wraps an endpoint and answers every COUNT probe with a
// non-numeric scalar, simulating a remote server that replies with an
// error page where a count was expected.
type malformedCounts struct{ inner client.Endpoint }

func (e *malformedCounts) Name() string { return e.inner.Name() }
func (e *malformedCounts) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	if strings.Contains(query, "COUNT(") {
		res := sparql.NewResults([]string{"lusail_c"})
		res.Rows = [][]rdf.Term{{rdf.NewLiteral("service unavailable")}}
		return sparql.NewResultsReader(res), nil
	}
	return e.inner.QueryStream(ctx, query)
}
func (e *malformedCounts) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return client.Collect(ctx, e, query)
}

func TestMalformedCountsAreUnknownNotZero(t *testing.T) {
	eps, _ := paperFederation(false)
	fed := federation.MustNew(&malformedCounts{eps[0]}, &malformedCounts{eps[1]})
	e := MustNew(fed, DefaultOptions())

	q, err := sparql.Parse(qa)
	if err != nil {
		t.Fatal(err)
	}
	branches, err := qplan.Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	br := branches[0]
	var prof Profile
	facts, err := e.selectSources(context.Background(), branches, &prof)
	if err != nil {
		t.Fatal(err)
	}
	sources, st := facts[0].sources, facts[0].stats
	if prof.CountProbes == 0 {
		t.Fatal("no COUNT probes sent; fixture broken")
	}
	for i, m := range st.card {
		if len(m) != 0 {
			t.Errorf("pattern %d: malformed counts stored as cardinalities %v, want unknown (absent)", i, m)
		}
	}

	// The estimates must be marked unknown, not silently zero — zero would
	// make every subquery look free and eagerly evaluated.
	gjv, err := e.detectBranch(context.Background(), br, sources, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, sq := range e.decompose(br, sources, gjv, st) {
		if sq.CardKnown {
			t.Errorf("subquery %s claims a known cardinality from malformed probes", sq)
		}
	}
}

func TestMalformedCountsStillAnswerCorrectly(t *testing.T) {
	// End to end: an engine whose COUNT probes are all garbage must return
	// exactly the same rows as a healthy one — statistics steer scheduling,
	// never results.
	eps, _ := paperFederation(true)
	healthy := newEngine(t, eps, DefaultOptions())
	broken := MustNew(federation.MustNew(&malformedCounts{eps[0]}, &malformedCounts{eps[1]}), DefaultOptions())

	ctx := context.Background()
	want, _, err := healthy.QueryString(ctx, qa)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := broken.QueryString(ctx, qa)
	if err != nil {
		t.Fatal(err)
	}
	want.Sort()
	got.Sort()
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("rows diverge under malformed counts:\n got %v\nwant %v", got.Rows, want.Rows)
	}
}

func TestCatalogAnswersStatsWithoutProbes(t *testing.T) {
	eps, _ := paperFederation(true)
	var m client.Metrics
	var list []client.Endpoint
	for _, ep := range eps {
		list = append(list, client.NewInstrumented(ep, &m))
	}
	fed := federation.MustNew(list...)

	st := catalog.NewStore("", time.Hour)
	if err := catalog.Build(context.Background(), fed, erh.New(4), st); err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.Catalog = st
	e := MustNew(fed, opts)

	m.Reset()
	res, prof, err := e.QueryString(context.Background(), qa)
	if err != nil {
		t.Fatal(err)
	}
	if prof.CountProbes != 0 {
		t.Errorf("CountProbes = %d, want 0 (all cardinalities from the catalog)", prof.CountProbes)
	}
	if prof.CatalogHits == 0 {
		t.Error("CatalogHits = 0, want > 0")
	}
	if asks := m.Snapshot().Asks; asks != 0 {
		t.Errorf("ASK probes = %d, want 0 (source selection from the catalog)", asks)
	}

	// Same rows as the probe-based engine.
	probe := MustNew(fed, DefaultOptions())
	want, wprof, err := probe.QueryString(context.Background(), qa)
	if err != nil {
		t.Fatal(err)
	}
	if wprof.CountProbes == 0 {
		t.Error("probe-based engine issued no COUNT probes; fixture broken")
	}
	res.Sort()
	want.Sort()
	if !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Errorf("catalog-on rows differ from probe path:\n got %v\nwant %v", res.Rows, want.Rows)
	}
}

func TestStaleCatalogFallsBackToProbes(t *testing.T) {
	eps, _ := paperFederation(false)
	var list []client.Endpoint
	for _, ep := range eps {
		list = append(list, ep)
	}
	fed := federation.MustNew(list...)

	st := catalog.NewStore("", time.Nanosecond)
	if err := catalog.Build(context.Background(), fed, erh.New(4), st); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // let the nanosecond TTL lapse

	opts := DefaultOptions()
	opts.Catalog = st
	e := MustNew(fed, opts)
	res, prof, err := e.QueryString(context.Background(), qa)
	if err != nil {
		t.Fatal(err)
	}
	if prof.CatalogHits != 0 {
		t.Errorf("stale catalog answered %d cardinalities, want 0", prof.CatalogHits)
	}
	if prof.CountProbes == 0 {
		t.Error("stale catalog should fall back to COUNT probes")
	}

	want, _, err := MustNew(fed, DefaultOptions()).QueryString(context.Background(), qa)
	if err != nil {
		t.Fatal(err)
	}
	res.Sort()
	want.Sort()
	if !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Errorf("stale-catalog rows differ from probe path")
	}
}
