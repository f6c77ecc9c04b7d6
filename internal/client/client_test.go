package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lusail/internal/rdf"
	"lusail/internal/store"
)

func testEP() *InProcess {
	st := store.NewFromTriples([]rdf.Triple{
		{S: rdf.NewIRI("http://ex/a"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/b")},
		{S: rdf.NewIRI("http://ex/a"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/c")},
	})
	return NewInProcess("ep", st)
}

func TestInProcessQuery(t *testing.T) {
	ep := testEP()
	res, err := ep.Query(context.Background(), `SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if ep.Name() != "ep" {
		t.Errorf("Name = %q", ep.Name())
	}
}

func TestInProcessContextCancelled(t *testing.T) {
	ep := testEP()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ep.Query(ctx, `ASK { ?s ?p ?o }`); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestAskHelperErrors(t *testing.T) {
	ep := testEP()
	if _, err := Ask(context.Background(), ep, `SELECT ?s WHERE { ?s ?p ?o }`); err == nil {
		t.Error("Ask on SELECT should error")
	}
	ok, err := Ask(context.Background(), ep, `ASK { ?s ?p ?o }`)
	if err != nil || !ok {
		t.Errorf("Ask = %v, %v", ok, err)
	}
}

func TestInstrumentedCounts(t *testing.T) {
	var m Metrics
	ep := NewInstrumented(testEP(), &m)
	ctx := context.Background()
	if _, err := ep.Query(ctx, `SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Query(ctx, `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Query(ctx, `SELECT bogus`); err == nil {
		t.Fatal("expected parse error")
	}
	s := m.Snapshot()
	if s.Requests != 3 || s.Asks != 1 || s.Rows != 2 || s.Errors != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Bytes <= 0 {
		t.Error("bytes should be positive")
	}
	m.Reset()
	if m.Snapshot() != (Snapshot{}) {
		t.Error("Reset did not zero counters")
	}
}

func TestSnapshotSub(t *testing.T) {
	a := Snapshot{Requests: 10, Rows: 100, Bytes: 1000}
	b := Snapshot{Requests: 4, Rows: 40, Bytes: 400}
	d := a.Sub(b)
	if d.Requests != 6 || d.Rows != 60 || d.Bytes != 600 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestLatencyInjectsDelay(t *testing.T) {
	ep := NewLatency(testEP(), 30*time.Millisecond, 0)
	start := time.Now()
	if _, err := ep.Query(context.Background(), `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("elapsed = %v, want >= 30ms", elapsed)
	}
}

func TestLatencyBandwidthDelay(t *testing.T) {
	// 2 rows ≈ >100 bytes at 1KB/s ≈ >100ms.
	ep := NewLatency(testEP(), 0, 1024)
	start := time.Now()
	if _, err := ep.Query(context.Background(), `SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("elapsed = %v, want bandwidth delay", elapsed)
	}
}

// Many small rows pay their transfer in quanta, not one overshooting timer
// per row: 2,000 rows of ~50 bytes at 5 MB/s are ~20 ms on the modeled
// wire, and a sleep per row would take several times that.
func TestLatencyBandwidthBatchesSmallRows(t *testing.T) {
	var triples []rdf.Triple
	for i := 0; i < 2000; i++ {
		triples = append(triples, rdf.Triple{S: rdf.NewIRI("http://ex/a"), P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewIRI(fmt.Sprintf("http://ex/o%d", i))})
	}
	ep := NewLatency(NewInProcess("ep", store.NewFromTriples(triples)), 0, 5_000_000)
	q := `SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`
	start := time.Now()
	res, err := ep.Query(context.Background(), q)
	elapsed := time.Since(start)
	if err != nil || len(res.Rows) != 2000 {
		t.Fatalf("Query = %d rows, %v", len(res.Rows), err)
	}
	size := headSize(res.Vars)
	for _, row := range res.Rows {
		size += rowSize(row)
	}
	modeled := time.Duration(float64(size) / 5e6 * float64(time.Second))
	if elapsed < modeled || elapsed > 4*modeled {
		t.Errorf("elapsed = %v for %v of modeled transfer", elapsed, modeled)
	}
}

func TestLatencyRespectsContext(t *testing.T) {
	ep := NewLatency(testEP(), time.Second, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ep.Query(ctx, `ASK { ?s ?p ?o }`)
	if err == nil {
		t.Error("expected context deadline error")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Error("cancellation did not interrupt sleep")
	}
}

// The wire-size model: a head of 40 bytes and len(var)+4 per variable,
// and a row of 4 bytes and each bound term's text with 30 bytes of
// framing. Instrumented counts one head per response, and rowSize per row.
func TestWireSizeModel(t *testing.T) {
	if headSize(nil) != 40 || headSize([]string{"x", "yz"}) != 40+5+6 {
		t.Errorf("head sizes %d, %d", headSize(nil), headSize([]string{"x", "yz"}))
	}
	iri := rdf.NewIRI("http://example.org/very/long/iri")
	if got := rowSize([]rdf.Term{iri, {}}); got != 4+len(iri.Value)+30 {
		t.Errorf("row size %d", got)
	}
	if rowSize([]rdf.Term{rdf.NewLangLiteral("v", "en")}) <= rowSize([]rdf.Term{rdf.NewLiteral("v")}) {
		t.Error("a language tag should add to the row size")
	}

	var m Metrics
	ep := NewInstrumented(testEP(), &m)
	ctx := context.Background()
	res, err := ep.Query(ctx, `SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	want := headSize(res.Vars)
	for _, row := range res.Rows {
		want += rowSize(row)
	}
	if got := m.Snapshot().Bytes; got != int64(want) {
		t.Errorf("SELECT counted %d bytes, want %d", got, want)
	}
	m.Reset()
	if _, err := ep.Query(ctx, `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Bytes; got != 40 {
		t.Errorf("ASK counted %d bytes, want 40", got)
	}
}

func TestHTTPClientErrorPaths(t *testing.T) {
	// Server returns 500.
	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "internal explosion", http.StatusInternalServerError)
	}))
	defer boom.Close()
	ep := NewHTTP("boom", boom.URL)
	if _, err := ep.Query(context.Background(), `ASK { ?s ?p ?o }`); err == nil ||
		!strings.Contains(err.Error(), "HTTP 500") {
		t.Errorf("expected HTTP 500 error, got %v", err)
	}

	// Server returns invalid JSON.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		w.Write([]byte("{not json"))
	}))
	defer garbage.Close()
	ep = NewHTTP("garbage", garbage.URL)
	if _, err := ep.Query(context.Background(), `ASK { ?s ?p ?o }`); err == nil {
		t.Error("expected JSON parse error")
	}

	// Connection refused.
	ep = NewHTTP("nowhere", "http://127.0.0.1:1")
	if _, err := ep.Query(context.Background(), `ASK { ?s ?p ?o }`); err == nil {
		t.Error("expected connection error")
	}
}
