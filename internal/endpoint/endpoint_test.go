package endpoint

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/eval"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

func testStore() *store.Store {
	return store.NewFromTriples([]rdf.Triple{
		{S: rdf.NewIRI("http://ex/a"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/b")},
		{S: rdf.NewIRI("http://ex/a"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("lit")},
		{S: rdf.NewIRI("http://ex/c"), P: rdf.NewIRI("http://ex/q"), O: rdf.NewLangLiteral("x", "en")},
	})
}

func TestHTTPEndpointSelect(t *testing.T) {
	ts := httptest.NewServer(NewHandler("ep1", testStore()))
	defer ts.Close()
	ep := client.NewHTTP("ep1", ts.URL)
	res, err := ep.Query(context.Background(), `SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
}

func TestHTTPEndpointAsk(t *testing.T) {
	ts := httptest.NewServer(NewHandler("ep1", testStore()))
	defer ts.Close()
	ep := client.NewHTTP("ep1", ts.URL)
	ok, err := client.Ask(context.Background(), ep, `ASK { <http://ex/a> <http://ex/p> ?o }`)
	if err != nil || !ok {
		t.Errorf("Ask = %v, %v; want true", ok, err)
	}
	ok, err = client.Ask(context.Background(), ep, `ASK { <http://ex/zzz> ?p ?o }`)
	if err != nil || ok {
		t.Errorf("Ask = %v, %v; want false", ok, err)
	}
}

func TestHTTPGetBinding(t *testing.T) {
	ts := httptest.NewServer(NewHandler("ep1", testStore()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "?query=" + url.QueryEscape(`ASK { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Errorf("content type = %q", ct)
	}
}

func TestHTTPRawQueryBody(t *testing.T) {
	ts := httptest.NewServer(NewHandler("ep1", testStore()))
	defer ts.Close()
	resp, err := http.Post(ts.URL, "application/sparql-query",
		strings.NewReader(`SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("raw query status = %d", resp.StatusCode)
	}
}

func TestHTTPBadQuery(t *testing.T) {
	ts := httptest.NewServer(NewHandler("ep1", testStore()))
	defer ts.Close()
	ep := client.NewHTTP("ep1", ts.URL)
	if _, err := ep.Query(context.Background(), `SELECT WHERE`); err == nil {
		t.Error("bad query should error")
	}
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query status = %d, want 400", resp.StatusCode)
	}
}

// HTTP and in-process endpoints must return identical results.
func TestHTTPMatchesInProcess(t *testing.T) {
	st := testStore()
	ts := httptest.NewServer(NewHandler("ep1", st))
	defer ts.Close()
	httpEP := client.NewHTTP("ep1", ts.URL)
	localEP := client.NewInProcess("ep1", st)

	queries := []string{
		`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`,
		`SELECT ?s ?o WHERE { ?s <http://ex/q> ?o }`,
		`SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o }`,
		`ASK { <http://ex/c> ?p ?o }`,
	}
	for _, q := range queries {
		a, err := httpEP.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("http %s: %v", q, err)
		}
		b, err := localEP.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("local %s: %v", q, err)
		}
		a.Sort()
		b.Sort()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %s: http %+v != local %+v", q, a, b)
		}
	}
}

func TestServeLifecycle(t *testing.T) {
	s, err := Serve("ep1", "127.0.0.1:0", testStore())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer s.Close()
	ep := client.NewHTTP(s.Name, s.URL)
	ok, err := client.Ask(context.Background(), ep, `ASK { ?s ?p ?o }`)
	if err != nil || !ok {
		t.Errorf("Ask over Serve = %v, %v", ok, err)
	}
}

func TestContentNegotiation(t *testing.T) {
	ts := httptest.NewServer(NewHandler("ep1", testStore()))
	defer ts.Close()
	get := func(accept string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"?query="+url.QueryEscape(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`), nil)
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.Header.Get("Content-Type"), string(body)
	}

	ct, body := get("text/csv")
	if !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("csv content type = %q", ct)
	}
	if !strings.HasPrefix(body, "s,o\n") {
		t.Errorf("csv body = %q", body)
	}

	ct, body = get("text/tab-separated-values")
	if !strings.HasPrefix(ct, "text/tab-separated-values") {
		t.Errorf("tsv content type = %q", ct)
	}
	if !strings.HasPrefix(body, "?s\t?o\n") || !strings.Contains(body, "<http://ex/a>") {
		t.Errorf("tsv body = %q", body)
	}

	ct, _ = get("application/sparql-results+json")
	if !strings.HasPrefix(ct, "application/sparql-results+json") {
		t.Errorf("json content type = %q", ct)
	}
}

func TestConstructOverHTTP(t *testing.T) {
	ts := httptest.NewServer(NewHandler("ep1", testStore()))
	defer ts.Close()
	q := `CONSTRUCT { ?s <http://ex/copy> ?o } WHERE { ?s <http://ex/p> ?o }`
	resp, err := http.Get(ts.URL + "?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/n-triples") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	triples, err := rdf.ParseNTriples(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("response is not N-Triples: %v\n%s", err, body)
	}
	if len(triples) != 2 {
		t.Errorf("triples = %d, want 2", len(triples))
	}
}

func TestSummaryRoute(t *testing.T) {
	srv, err := Serve("ep1", "127.0.0.1:0", testStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := strings.TrimSuffix(srv.URL, "/sparql")
	for i := 0; i < 2; i++ { // second hit exercises the memoized path
		resp, err := http.Get(base + "/summary")
		if err != nil {
			t.Fatal(err)
		}
		var sum catalog.Summary
		err = json.NewDecoder(resp.Body).Decode(&sum)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding /summary: %v", err)
		}
		if sum.Endpoint != "ep1" {
			t.Errorf("summary endpoint = %q, want ep1", sum.Endpoint)
		}
		if sum.Triples != 3 {
			t.Errorf("summary triples = %d, want 3", sum.Triples)
		}
		if _, ok := sum.Predicates["http://ex/p"]; !ok {
			t.Errorf("summary lacks predicate http://ex/p: %v", sum.Predicates)
		}
		if sum.Capabilities.Truncated {
			t.Error("summary of a fully scanned store marked truncated")
		}
	}
}

// The engine's client gets TSV with back-references for SELECT and JSON
// for ASK; its old TSV-first header, as a foreign client would send it,
// still gets TSV; wildcards get JSON; q-values are honoured.
func TestNegotiatedFormats(t *testing.T) {
	ts := httptest.NewServer(NewHandler("ep1", testStore()))
	defer ts.Close()
	contentType := func(query, accept string) string {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"?query="+url.QueryEscape(query), nil)
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get("Content-Type")
	}
	const (
		engine = "text/x-lusail-tsv-refs, text/tab-separated-values;q=0.95, application/sparql-results+json;q=0.9"
		tsv    = "text/tab-separated-values, application/sparql-results+json;q=0.9"
	)
	sel, ask := `SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`, `ASK { ?s ?p ?o }`
	for _, tc := range []struct{ query, accept, want string }{
		{sel, engine, "text/x-lusail-tsv-refs; charset=utf-8"},
		{sel, tsv, "text/tab-separated-values; charset=utf-8"},
		{ask, engine, "application/sparql-results+json"},
		{ask, tsv, "application/sparql-results+json"},
		{ask, "text/tab-separated-values", "application/sparql-results+json"},
		{sel, "application/sparql-results+json, text/csv;q=0.1", "application/sparql-results+json"},
		{sel, "*/*", "application/sparql-results+json"},
	} {
		if got := contentType(tc.query, tc.accept); got != tc.want {
			t.Errorf("%s with Accept %q: Content-Type %q, want %q", tc.query, tc.accept, got, tc.want)
		}
	}
}

// The handler writes TSV from the evaluator's id rows; a cursor that
// stopped offering them would silently decode every cell instead.
func TestSelectCursorReadsIDRows(t *testing.T) {
	rows, err := eval.New(testStore()).Select(sparql.MustParse(`SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if _, ok := rows.(idRows); !ok {
		t.Fatalf("eval.Select returned %T, which does not read id rows", rows)
	}
}

// TestOversizedQueryBodyRejected sends a direct POST whose query only ends
// past the body cap: cutting it at the cap would drop its LIMIT 0 and
// answer every triple, so the request is refused whole, with 413.
func TestOversizedQueryBodyRejected(t *testing.T) {
	text := `SELECT * WHERE { ?s ?p ?o }` + strings.Repeat(" ", maxQueryBytes) + ` LIMIT 0`
	post := func(body string) *http.Request {
		req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/sparql-query")
		return req
	}
	if q, err := ExtractQuery(post(text)); err == nil {
		t.Fatalf("extracted %d of %d bytes without an error", len(q), len(text))
	}
	rec := httptest.NewRecorder()
	NewHandler("ep1", testStore()).ServeHTTP(rec, post(text))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413: %s", rec.Code, rec.Body.Bytes())
	}
	// A body of exactly the cap is read whole.
	atCap := text[:maxQueryBytes]
	if q, err := ExtractQuery(post(atCap)); err != nil || q != atCap {
		t.Errorf("body at the cap: %d bytes, %v", len(q), err)
	}
	// A form-encoded POST has the same cap.
	form := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader("query="+url.QueryEscape(text)))
	form.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	NewHandler("ep1", testStore()).ServeHTTP(rec, form)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("form status = %d, want 413: %s", rec.Code, rec.Body.Bytes())
	}
}
