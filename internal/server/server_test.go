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

func get(t *testing.T, rawURL string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, body
}

// TestConcurrentSameShapeSingleFlight exercises the plan cache's single-
// flight path: many concurrent requests for one query shape must plan it
// exactly once, and every response must be a valid streamed JSON document.
// Run under -race this also checks the cache's locking.
func TestConcurrentSameShapeSingleFlight(t *testing.T) {
	eng := sharedFed(t).NewLusail(core.DefaultOptions())
	srv := startServer(t, eng, func(cfg *server.Config) {
		cfg.DisableResultCache = true // isolate the plan cache
		cfg.DefaultTenant = server.TenantConfig{MaxConcurrent: 16}
	})
	u := srv.URL + "?query=" + url.QueryEscape(testQuery())

	const n = 8
	var mu sync.Mutex
	misses, rows := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := get(t, u, nil)
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
			rows += res.Len()
			if resp.Header.Get("X-Lusail-Plan-Cache") == "miss" {
				misses++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if misses != 1 {
		t.Errorf("plan-cache misses = %d, want exactly 1 (single flight)", misses)
	}
	if srv.PlanCache().Len() != 1 {
		t.Errorf("plan cache holds %d plans, want 1", srv.PlanCache().Len())
	}
	if rows == 0 {
		t.Error("all responses were empty; expected LUBM results")
	}
}

// TestPlanCacheEpochInvalidation checks that a catalog update bumps the
// engine's epoch and forces cached plans to be rebuilt.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	cat := catalog.NewStore("", 0)
	opts := core.DefaultOptions()
	opts.Catalog = cat
	eng := sharedFed(t).NewLusail(opts)
	srv := startServer(t, eng, func(cfg *server.Config) {
		cfg.DisableResultCache = true
	})
	u := srv.URL + "?query=" + url.QueryEscape(testQuery())

	resp, _ := get(t, u, nil)
	if got := resp.Header.Get("X-Lusail-Plan-Cache"); got != "miss" {
		t.Fatalf("first request: plan cache %q, want miss", got)
	}
	resp, _ = get(t, u, nil)
	if got := resp.Header.Get("X-Lusail-Plan-Cache"); got != "hit" {
		t.Fatalf("second request: plan cache %q, want hit", got)
	}

	before := eng.Epoch()
	// Any catalog write bumps the epoch; a summary for an unknown endpoint
	// changes no planning decision but still invalidates, conservatively.
	cat.Put(&catalog.Summary{Endpoint: "ghost", BuiltAt: time.Now()})
	if eng.Epoch() == before {
		t.Fatal("catalog Put did not change the engine epoch")
	}

	resp, _ = get(t, u, nil)
	if got := resp.Header.Get("X-Lusail-Plan-Cache"); got != "miss" {
		t.Fatalf("post-bump request: plan cache %q, want miss (stale plan rebuilt)", got)
	}
	resp, _ = get(t, u, nil)
	if got := resp.Header.Get("X-Lusail-Plan-Cache"); got != "hit" {
		t.Fatalf("post-rebuild request: plan cache %q, want hit", got)
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

// TestPlanCacheDirectSingleFlight hits the cache API without HTTP: all
// concurrent getters of one shape must receive the identical *core.Plan.
func TestPlanCacheDirectSingleFlight(t *testing.T) {
	eng := sharedFed(t).NewLusail(core.DefaultOptions())
	pc := server.NewPlanCache(eng, 8)
	parsed, err := sparql.Parse(testQuery())
	if err != nil {
		t.Fatal(err)
	}
	canonical := sema.CanonicalText(parsed)
	key := sema.KeyOf(canonical)

	const n = 16
	plans := make([]*core.Plan, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := pc.Get(context.Background(), key, canonical)
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] || plans[i] == nil {
			t.Fatalf("getter %d received a different plan (%p vs %p)", i, plans[i], plans[0])
		}
	}
	if pc.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", pc.Len())
	}
}

// TestCanonicalKeyHitRate proves the plan cache keys on the sema canonical
// form: the same LUBM shape spelled with different whitespace, prefix
// names, pattern order, and variable names must build exactly one plan —
// the second spelling is a hit.
func TestCanonicalKeyHitRate(t *testing.T) {
	eng := sharedFed(t).NewLusail(core.DefaultOptions())
	srv := startServer(t, eng, func(cfg *server.Config) {
		cfg.DisableResultCache = true // the plan cache is under test
	})

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

	respA, bodyA := get(t, srv.URL+"?query="+url.QueryEscape(spellingA), nil)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("spelling A: status %d: %s", respA.StatusCode, bodyA)
	}
	if got := respA.Header.Get("X-Lusail-Plan-Cache"); got != "miss" {
		t.Fatalf("spelling A: X-Lusail-Plan-Cache=%q, want miss", got)
	}
	respB, bodyB := get(t, srv.URL+"?query="+url.QueryEscape(spellingB), nil)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("spelling B: status %d: %s", respB.StatusCode, bodyB)
	}
	if got := respB.Header.Get("X-Lusail-Plan-Cache"); got != "hit" {
		t.Errorf("spelling B: X-Lusail-Plan-Cache=%q, want hit (canonical keying)", got)
	}
	if srv.PlanCache().Len() != 1 {
		t.Errorf("plan cache holds %d plans, want 1", srv.PlanCache().Len())
	}

	// Both spellings must return the same rows.
	resA, errA := sparql.ParseResultsJSON(bodyA)
	resB, errB := sparql.ParseResultsJSON(bodyB)
	if errA != nil || errB != nil {
		t.Fatalf("parsing results: %v / %v", errA, errB)
	}
	if resA.Len() != resB.Len() {
		t.Errorf("spellings returned different row counts: %d vs %d", resA.Len(), resB.Len())
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
			resp, body := get(t, srv.URL+"?query="+url.QueryEscape(queries[i].Text), nil)
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
