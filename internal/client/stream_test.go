package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lusail/internal/rdf"
)

// resultsDoc renders a sparql-results+json document with n one-var rows.
func resultsDoc(n int) string {
	var b strings.Builder
	b.WriteString(`{"head":{"vars":["x"]},"results":{"bindings":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"x":{"type":"uri","value":"http://ex.org/r%d"}}`, i)
	}
	b.WriteString(`]}}`)
	return b.String()
}

func sparqlServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestHTTPResponseTooLarge pins the truncation fix: a body over the cap is
// a typed EndpointError wrapping ErrResponseTooLarge — never a silently
// clipped result parsed as complete.
func TestHTTPResponseTooLarge(t *testing.T) {
	body := resultsDoc(200)
	srv := sparqlServer(t, body)
	ep, err := NewHTTPWithOptions("cap", srv.URL, HTTPOptions{MaxResponseBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ep.Query(context.Background(), "SELECT * WHERE { ?s ?p ?o }")
	if err == nil {
		t.Fatal("oversized response returned a result")
	}
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("error = %v, want errors.Is(..., ErrResponseTooLarge)", err)
	}
	var ee *EndpointError
	if !errors.As(err, &ee) || ee.Endpoint != "cap" {
		t.Fatalf("error = %v, want *EndpointError for endpoint cap", err)
	}
	if errors.Is(err, io.EOF) {
		t.Fatalf("truncation must not satisfy io.EOF: %v", err)
	}
}

// TestHTTPResponseAtCap pins the boundary: a body of exactly the cap size
// is complete, not an error.
func TestHTTPResponseAtCap(t *testing.T) {
	body := resultsDoc(3)
	srv := sparqlServer(t, body)
	ep, err := NewHTTPWithOptions("edge", srv.URL, HTTPOptions{MaxResponseBytes: int64(len(body))})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ep.Query(context.Background(), "SELECT * WHERE { ?s ?p ?o }")
	if err != nil {
		t.Fatalf("body exactly at cap: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestHTTPOptionsValidate(t *testing.T) {
	if _, err := NewHTTPWithOptions("bad", "http://ex.org/sparql", HTTPOptions{MaxResponseBytes: -1}); err == nil {
		t.Fatal("negative MaxResponseBytes accepted")
	}
	if err := (HTTPOptions{}).Validate(); err != nil {
		t.Fatalf("zero options: %v", err)
	}
}

// TestHTTPQueryStreamIncremental proves the client delivers rows before
// the endpoint finishes writing the body.
func TestHTTPQueryStreamIncremental(t *testing.T) {
	release := make(chan struct{})
	served := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		io.WriteString(w, `{"head":{"vars":["x"]},"results":{"bindings":[
			{"x":{"type":"literal","value":"first"}},`)
		w.(http.Flusher).Flush()
		<-release
		io.WriteString(w, `{"x":{"type":"literal","value":"second"}}]}}`)
		close(served)
	}))
	defer srv.Close()
	defer close(release)

	ep := NewHTTP("inc", srv.URL)
	rd, err := ep.QueryStream(context.Background(), "SELECT * WHERE { ?s ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	row, err := rd.Read()
	if err != nil {
		t.Fatalf("first row while body still open: %v", err)
	}
	if row[0] != rdf.NewLiteral("first") {
		t.Fatalf("row = %v", row)
	}
	select {
	case <-served:
		t.Fatal("server finished before the first row was observed")
	default:
	}
	release <- struct{}{}
	if row, err = rd.Read(); err != nil || row[0] != rdf.NewLiteral("second") {
		t.Fatalf("second row: %v, %v", row, err)
	}
	if _, err := rd.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v", err)
	}
}
