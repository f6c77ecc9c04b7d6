package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lusail/internal/bench"
	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/eval"
	"lusail/internal/federation"
	"lusail/internal/lint/leakcheck"
	"lusail/internal/resilience"
	"lusail/internal/server"
	"lusail/internal/sparql"
	"lusail/internal/sparql/sema"
	"lusail/internal/store"
)

// The LUBM federation is immutable once built, so all tests that only read
// from it share one instance; engines are cheap by comparison.
var (
	fedOnce sync.Once
	fed     *bench.Fed
	fedErr  error
)

func sharedFed(t *testing.T) *bench.Fed {
	t.Helper()
	fedOnce.Do(func() {
		fed, fedErr = bench.NewFed(bench.GenerateLUBM(bench.DefaultLUBM(2)), bench.InProcess())
	})
	if fedErr != nil {
		t.Fatalf("building LUBM federation: %v", fedErr)
	}
	return fed
}

func startServer(t *testing.T, eng *core.Engine, mutate func(*server.Config)) *server.Server {
	t.Helper()
	cfg := server.Config{
		Engine:       eng,
		QueryTimeout: 30 * time.Second,
		Logf:         func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func testQuery() string { return bench.LUBMQueries()[0].Text }

// fetch GETs rawURL and reads the body. Unlike get it may run on any
// goroutine.
func fetch(rawURL string, header map[string]string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("GET %s: %w", rawURL, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("reading body: %w", err)
	}
	return resp, body, nil
}

func get(t *testing.T, rawURL string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := fetch(rawURL, header)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// countedEngine returns a fresh engine, so its fact cache is cold, over
// the shared federation's endpoints, each passed through wrap (when
// non-nil) and wrapped to count its own requests.
func countedEngine(t *testing.T, wrap func(client.Endpoint) client.Endpoint) (*core.Engine, map[string]*client.Metrics) {
	t.Helper()
	counts := map[string]*client.Metrics{}
	var eps []client.Endpoint
	for _, ep := range sharedFed(t).Federation.Endpoints() {
		if wrap != nil {
			ep = wrap(ep)
		}
		m := &client.Metrics{}
		counts[ep.Name()] = m
		eps = append(eps, client.NewInstrumented(ep, m))
	}
	return core.MustNew(federation.MustNew(eps...), core.DefaultOptions()), counts
}

// requests reads each endpoint's request count.
func requests(counts map[string]*client.Metrics) map[string]int64 {
	out := map[string]int64{}
	for name, m := range counts {
		out[name] = m.Requests.Load()
	}
	return out
}

// barrier holds an endpoint's first n requests until all n have arrived.
// n concurrent cold queries therefore all send their first planning
// request before any of them learns a fact.
type barrier struct {
	client.Endpoint
	n int

	mu      sync.Mutex
	arrived int
	all     chan struct{}
}

func newBarrier(ep client.Endpoint, n int) *barrier {
	return &barrier{Endpoint: ep, n: n, all: make(chan struct{})}
}

func (b *barrier) QueryStream(ctx context.Context, q string) (sparql.RowReader, error) {
	b.mu.Lock()
	b.arrived++
	held := b.arrived <= b.n
	if b.arrived == b.n {
		close(b.all)
	}
	b.mu.Unlock()
	if held {
		select {
		case <-b.all:
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("%s: fewer than %d requests reached the barrier", b.Name(), b.n)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.Endpoint.QueryStream(ctx, q)
}

func (b *barrier) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return client.Collect(ctx, b, q)
}

// TestConcurrentColdSameShape sends one query shape 8 times at once to a
// cold lusaild with the result cache off: every response must be a valid
// streamed JSON document. lusaild does not single-flight planning, so the
// 8 cold requests each send one cold plan's planning requests; once the
// engine's fact cache holds the shape's facts, a 9th sends none. Run
// under -race.
func TestConcurrentColdSameShape(t *testing.T) {
	const n = 8
	canonical := sema.CanonicalText(sparql.MustParse(testQuery()))

	// One cold plan's planning requests per endpoint, and one execution's.
	eng, counts := countedEngine(t, nil)
	plan, err := eng.PlanString(context.Background(), canonical)
	if err != nil {
		t.Fatal(err)
	}
	planning := requests(counts)
	rows, err := eng.ExecutePlanStream(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	execution := requests(counts)
	for name := range execution {
		execution[name] -= planning[name]
	}

	eng, counts = countedEngine(t, func(ep client.Endpoint) client.Endpoint { return newBarrier(ep, n) })
	srv := startServer(t, eng, func(cfg *server.Config) {
		cfg.DisableResultCache = true
		cfg.DefaultTenant = server.TenantConfig{MaxConcurrent: 16}
	})
	u := srv.URL + "?query=" + url.QueryEscape(testQuery())

	var mu sync.Mutex
	answered := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body, err := fetch(u, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			res, err := sparql.ParseResultsJSON(body)
			if err != nil {
				t.Errorf("invalid results document: %v", err)
				return
			}
			mu.Lock()
			answered += res.Len()
			mu.Unlock()
		}()
	}
	wg.Wait()
	if answered == 0 {
		t.Error("all responses were empty; expected LUBM results")
	}
	got := requests(counts)
	for name, p := range planning {
		if want := n * (p + execution[name]); got[name] != want {
			t.Errorf("%s: %d requests, want %d: %d cold plans of %d planning requests and %d executions of %d",
				name, got[name], want, n, p, n, execution[name])
		}
	}

	if resp, body := get(t, u, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", resp.StatusCode, body)
	}
	warm := requests(counts)
	for name := range warm {
		if d := warm[name] - got[name]; d != execution[name] {
			t.Errorf("%s: warm request sent %d requests, want the execution's %d and no planning", name, d, execution[name])
		}
	}
}

// TestCatalogPutInvalidatesResultHit checks that a catalog update bumps the
// engine's epoch and so turns a result hit into a miss.
func TestCatalogPutInvalidatesResultHit(t *testing.T) {
	cat := catalog.NewStore("", 0)
	opts := core.DefaultOptions()
	opts.Catalog = cat
	eng := sharedFed(t).NewLusail(opts)
	srv := startServer(t, eng, nil)
	u := srv.URL + "?query=" + url.QueryEscape(testQuery())

	for i, want := range []string{"", "result-hit"} {
		if resp, _ := get(t, u, nil); resp.Header.Get("X-Lusail-Cache") != want {
			t.Fatalf("request %d: X-Lusail-Cache=%q, want %q", i, resp.Header.Get("X-Lusail-Cache"), want)
		}
	}

	before := eng.Epoch()
	// Any catalog write bumps the epoch; a summary for an unknown endpoint
	// changes no planning decision but still invalidates, conservatively.
	cat.Put(&catalog.Summary{Endpoint: "ghost", BuiltAt: time.Now()})
	if eng.Epoch() == before {
		t.Fatal("catalog Put did not change the engine epoch")
	}

	for i, want := range []string{"", "result-hit"} {
		if resp, _ := get(t, u, nil); resp.Header.Get("X-Lusail-Cache") != want {
			t.Fatalf("post-bump request %d: X-Lusail-Cache=%q, want %q", i, resp.Header.Get("X-Lusail-Cache"), want)
		}
	}
}

// TestQuotaBurstStructured429 drives a tenant past its rate quota and
// checks the structured rejection body.
func TestQuotaBurstStructured429(t *testing.T) {
	eng := sharedFed(t).NewLusail(core.DefaultOptions())
	srv := startServer(t, eng, func(cfg *server.Config) {
		cfg.Tenants = map[string]server.TenantConfig{
			"bronze": {RatePerSec: 0.001, Burst: 1, MaxConcurrent: 4},
		}
	})
	u := srv.URL + "?query=" + url.QueryEscape(testQuery())
	hdr := map[string]string{"X-Lusail-Tenant": "bronze"}

	resp, body := get(t, u, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("within-quota request: status %d: %s", resp.StatusCode, body)
	}

	resp, body = get(t, u, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var rej struct {
		Error    string               `json:"error"`
		Tenant   string               `json:"tenant"`
		Warnings []resilience.Warning `json:"warnings"`
	}
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatalf("429 body is not JSON: %v\n%s", err, body)
	}
	if rej.Tenant != "bronze" || rej.Error == "" || len(rej.Warnings) != 1 {
		t.Errorf("unexpected rejection body: %+v", rej)
	}

	// An unthrottled tenant is unaffected.
	resp, body = get(t, u, map[string]string{"X-Lusail-Tenant": "gold"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("other tenant: status %d: %s", resp.StatusCode, body)
	}
}

// TestStreamingDisconnectFreesSlot hangs every endpoint so a query blocks
// mid-execution, disconnects the client, and checks that cancellation
// propagates: the tenant's only concurrency slot is released and the server
// stays healthy. This is the ctxflow invariant exercised at runtime.
func TestStreamingDisconnectFreesSlot(t *testing.T) {
	datasets := bench.GenerateLUBM(bench.DefaultLUBM(1))
	hangFed, err := bench.NewFedWithFaults(datasets, bench.InProcess(), datasets[0].Name, resilience.FaultSpec{Hang: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := hangFed.NewLusail(core.DefaultOptions())
	srv := startServer(t, eng, func(cfg *server.Config) {
		cfg.Tenants = map[string]server.TenantConfig{
			"solo": {MaxConcurrent: 1, MaxQueue: -1},
		}
	})
	base := srv.URL[:len(srv.URL)-len("/sparql")]

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"?query="+url.QueryEscape(testQuery()), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Lusail-Tenant", "solo")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	inFlight := func() int {
		resp, body := get(t, base+"/admin/tenants", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/admin/tenants: status %d", resp.StatusCode)
		}
		var st struct {
			Tenants []server.TenantSnapshot `json:"tenants"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("/admin/tenants body: %v", err)
		}
		for _, ts := range st.Tenants {
			if ts.Name == "solo" {
				return ts.InFlight
			}
		}
		return 0
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	waitFor("the hanging query to occupy the slot", func() bool { return inFlight() == 1 })
	cancel() // client disconnects
	if err := <-done; err == nil {
		t.Fatal("hanging request completed; expected the cancelled context to abort it")
	}
	waitFor("the slot to be released after disconnect", func() bool { return inFlight() == 0 })

	resp, _ := get(t, base+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after disconnect: status %d", resp.StatusCode)
	}
}

// TestStartQueryDrainNoLeak wraps a full server lifecycle — start, serve a
// query, graceful drain — in a goroutine-leak check.
func TestStartQueryDrainNoLeak(t *testing.T) {
	sharedFed(t) // build (or reuse) the federation outside the baseline
	base := leakcheck.Take()

	eng := fed.NewLusail(core.DefaultOptions())
	srv, err := server.Start("127.0.0.1:0", server.Config{
		Engine:       eng,
		QueryTimeout: 30 * time.Second,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, srv.URL+"?query="+url.QueryEscape(testQuery()), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, body)
	}
	if _, err := sparql.ParseResultsJSON(body); err != nil {
		t.Fatalf("invalid results document: %v", err)
	}

	ctx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelDrain()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := leakcheck.Verify(base, leakcheck.DefaultGrace); err != nil {
		t.Fatalf("goroutines leaked across server lifecycle: %v", err)
	}
}

// TestContentNegotiationAndResultCache covers the non-streaming formats and
// the result cache header.
func TestContentNegotiationAndResultCache(t *testing.T) {
	eng := sharedFed(t).NewLusail(core.DefaultOptions())
	srv := startServer(t, eng, nil)
	u := srv.URL + "?query=" + url.QueryEscape(testQuery())

	resp, body := get(t, u, map[string]string{"Accept": "text/csv"})
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("CSV: status %d, %d bytes", resp.StatusCode, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Errorf("CSV content type %q", ct)
	}

	// The completed CSV answer populated the result cache; the next request
	// for the same canonical shape is answered from it.
	resp, _ = get(t, u, nil)
	if resp.Header.Get("X-Lusail-Cache") != "result-hit" {
		t.Errorf("second request: X-Lusail-Cache=%q, want result-hit", resp.Header.Get("X-Lusail-Cache"))
	}
}

// recordingTransport keeps the last response it carried.
type recordingTransport struct{ last *http.Response }

func (rt *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	rt.last = resp
	return resp, err
}

// TestStreamsEngineClientTSV queries lusaild through the engine's own
// endpoint client, which asks for TSV with back-references first (the
// term-keyed path of the TSV writer): the answer must stream (a
// body flushed before the handler finished has no Content-Length, while a
// materialized one this small would) and hold the rows the JSON stream
// holds.
func TestStreamsEngineClientTSV(t *testing.T) {
	eng := sharedFed(t).NewLusail(core.DefaultOptions())
	srv := startServer(t, eng, func(cfg *server.Config) {
		cfg.DisableResultCache = true // a result-hit is written whole
	})
	const q = "SELECT ?p ?o WHERE { <http://www.University0.edu/Department0/Professor0> ?p ?o }"

	rt := &recordingTransport{}
	hc := &http.Client{Transport: rt, Timeout: 30 * time.Second}
	got, err := client.NewHTTPWithClient("lusaild", srv.URL, hc).Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := sparql.FormatOf(rt.last.Header.Get("Content-Type")); f != sparql.FormatTSVRefs {
		t.Errorf("Content-Type %q, want TSV with back-references", rt.last.Header.Get("Content-Type"))
	}
	if rt.last.ContentLength != -1 {
		t.Errorf("Content-Length %d: the TSV answer was materialized, not streamed", rt.last.ContentLength)
	}

	resp, body := get(t, srv.URL+"?query="+url.QueryEscape(q), nil)
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("no Accept header: Content-Type %q, want JSON", ct)
	}
	want, err := sparql.ParseResultsJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || got.Len() != want.Len() {
		t.Fatalf("TSV stream has %d rows, JSON stream %d", got.Len(), want.Len())
	}
	rowSet := func(r *sparql.Results) map[string]int {
		m := map[string]int{}
		for _, row := range r.Rows {
			m[fmt.Sprint(row)]++
		}
		return m
	}
	if g, w := rowSet(got), rowSet(want); !maps.Equal(g, w) {
		t.Errorf("TSV rows %v\nJSON rows %v", g, w)
	}
}

// TestCanonicalKeyHitRate proves the result cache keys on the sema
// canonical form: the same LUBM shape spelled with different whitespace,
// prefix names, pattern order, and variable names is answered from the
// first spelling's result. With the result cache off, each spelling on a
// cold engine plans the same canonical text: both send the same requests
// to every endpoint and return the same rows.
func TestCanonicalKeyHitRate(t *testing.T) {
	spellingA := `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?X WHERE {
	?X rdf:type ub:GraduateStudent .
	?X ub:undergraduateDegreeFrom <http://www.University0.edu> .
}`
	// Same query: prefixes renamed, patterns reordered, variable renamed
	// (the projected ?X must keep its name — it is the output schema).
	spellingB := `PREFIX uni: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?X
WHERE {
	?X   uni:undergraduateDegreeFrom   <http://www.University0.edu> .
	?X <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> uni:GraduateStudent
}`
	query := func(srv *server.Server, q string) (*http.Response, *sparql.Results) {
		t.Helper()
		resp, body := get(t, srv.URL+"?query="+url.QueryEscape(q), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		res, err := sparql.ParseResultsJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		res.Sort()
		return resp, res
	}

	srv := startServer(t, sharedFed(t).NewLusail(core.DefaultOptions()), nil)
	if resp, _ := query(srv, spellingA); resp.Header.Get("X-Lusail-Cache") != "" {
		t.Fatalf("spelling A: X-Lusail-Cache=%q, want a miss", resp.Header.Get("X-Lusail-Cache"))
	}
	if resp, _ := query(srv, spellingB); resp.Header.Get("X-Lusail-Cache") != "result-hit" {
		t.Errorf("spelling B: X-Lusail-Cache=%q, want result-hit (canonical keying)", resp.Header.Get("X-Lusail-Cache"))
	}

	var sent []map[string]int64
	var answers []*sparql.Results
	for _, q := range []string{spellingA, spellingB} {
		eng, counts := countedEngine(t, nil)
		srv := startServer(t, eng, func(cfg *server.Config) { cfg.DisableResultCache = true })
		_, res := query(srv, q)
		sent = append(sent, requests(counts))
		answers = append(answers, res)
	}
	if !maps.Equal(sent[0], sent[1]) {
		t.Errorf("per-endpoint requests: spelling A %v, spelling B %v", sent[0], sent[1])
	}
	if answers[0].Len() == 0 || !reflect.DeepEqual(answers[0].Rows, answers[1].Rows) {
		t.Errorf("spelling A returned %d rows, spelling B %d, or they differ", answers[0].Len(), answers[1].Len())
	}
}

// TestSemaRejection checks that an error-tier static-analysis finding is
// answered with a structured 400 carrying positioned diagnostics, before
// any engine work.
func TestSemaRejection(t *testing.T) {
	eng := sharedFed(t).NewLusail(core.DefaultOptions())
	srv := startServer(t, eng, nil)

	// FILTER over a variable its group never binds: error tier.
	bad := `SELECT ?s WHERE {
  ?s <http://example.org/p> ?o .
  FILTER(?price > 100)
}`
	resp, body := get(t, srv.URL+"?query="+url.QueryEscape(bad), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	var rej struct {
		Error       string                  `json:"error"`
		Diagnostics []sparql.SemaDiagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatalf("rejection is not structured JSON: %v: %s", err, body)
	}
	if len(rej.Diagnostics) == 0 {
		t.Fatal("rejection carries no diagnostics")
	}
	d := rej.Diagnostics[0]
	if d.Check != "unboundvar" || d.Line != 3 {
		t.Errorf("diagnostic = %+v, want unboundvar at line 3", d)
	}

	// Warning-tier findings must not block; they surface as a header.
	warned := `SELECT ?a ?x WHERE {
  ?a <http://example.org/p> ?b .
  ?x <http://example.org/q> ?y .
}`
	resp, body = get(t, srv.URL+"?query="+url.QueryEscape(warned), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warning-tier query: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Lusail-Sema-Warnings") == "" {
		t.Error("missing X-Lusail-Sema-Warnings header on cartesian query")
	}
	if resp.Header.Get("X-Lusail-Degraded") != "" {
		t.Error("sema warnings must not mark the answer degraded")
	}
}

// TestOversizedQueryBody checks that a direct POST body over the cap is
// refused with 413, not parsed as whatever fits: here the cut would drop
// the query's LIMIT 0.
func TestOversizedQueryBody(t *testing.T) {
	srv := startServer(t, sharedFed(t).NewLusail(core.DefaultOptions()), nil)
	body := testQuery() + strings.Repeat(" ", 16<<20) + " LIMIT 0"
	resp, err := http.Post(srv.URL, "application/sparql-query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		msg, _ := io.ReadAll(resp.Body)
		t.Errorf("status %d, want 413: %.200s", resp.StatusCode, msg)
	}
}

// TestConcurrentShapesShareOneDict sends LUBM Q1–Q4 to lusaild twice each,
// all at once, with the result cache off: the executions run concurrently
// on one engine and intern into its one term dictionary, and every answer
// is the centralized one. Run under -race.
func TestConcurrentShapesShareOneDict(t *testing.T) {
	f := sharedFed(t)
	srv := startServer(t, f.NewLusail(core.DefaultOptions()), func(cfg *server.Config) {
		cfg.DisableResultCache = true
		cfg.DefaultTenant = server.TenantConfig{MaxConcurrent: 16}
	})
	union := store.New()
	for _, ds := range f.Datasets {
		union.AddAll(ds.Triples)
	}
	queries := bench.LUBMQueries()
	want := make([]*sparql.Results, len(queries))
	for i, q := range queries {
		res, err := eval.New(union).QueryString(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		res.Rows = sparql.DistinctRows(res.Rows)
		res.Sort()
		want[i] = res
	}
	var wg sync.WaitGroup
	for n := range 2 * len(queries) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := n % len(queries)
			resp, body, err := fetch(srv.URL+"?query="+url.QueryEscape(queries[i].Text), nil)
			if err != nil {
				t.Errorf("%s: %v", queries[i].Name, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", queries[i].Name, resp.StatusCode, body)
				return
			}
			got, err := sparql.ParseResultsJSON(body)
			if err != nil {
				t.Errorf("%s: %v", queries[i].Name, err)
				return
			}
			got.Rows = sparql.DistinctRows(got.Rows)
			got.Sort()
			if !reflect.DeepEqual(got.Rows, want[i].Rows) {
				t.Errorf("%s: %d rows, oracle %d", queries[i].Name, len(got.Rows), len(want[i].Rows))
			}
		}()
	}
	wg.Wait()
}
