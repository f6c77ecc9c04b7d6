package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// rawServer answers every request with the given bytes on the raw
// connection and then closes it, so a test controls the HTTP framing.
func rawServer(t *testing.T, raw string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, bufrw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		bufrw.WriteString(raw)
		bufrw.Flush()
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func tsvServer(t *testing.T, contentType, body string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentType)
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

const tsvType = "text/tab-separated-values; charset=utf-8"

// The client asks for TSV with back-references first, and a server that
// offers only TSV still answers it.
func TestHTTPAsksForTSV(t *testing.T) {
	accept := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		accept <- r.Header.Get("Accept")
		w.Header().Set("Content-Type", tsvType)
		io.WriteString(w, "?x\n<http://ex.org/a>\n")
	}))
	defer srv.Close()
	res, err := NewHTTP("ep", srv.URL).Query(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if got := sparql.Negotiate(<-accept, false); got != sparql.FormatTSVRefs {
		t.Errorf("the client's Accept header negotiates %v, want TSV with back-references", got)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != rdf.NewIRI("http://ex.org/a") {
		t.Errorf("rows = %v", res.Rows)
	}
}

// The query travels as the request body of a direct POST (SPARQL 1.1
// Protocol §2.1.3), byte for byte: no form encoding of &, %, + or
// non-ASCII IRIs.
func TestHTTPSendsQueryByDirectPOST(t *testing.T) {
	const query = `SELECT ?x WHERE { ?x <http://ex.org/a&b%20c+d> "1+1=2 & 50%" . ?x <http://ex.org/café> ?y }`
	type request struct {
		method, contentType string
		body                []byte
	}
	got := make(chan request, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got <- request{r.Method, r.Header.Get("Content-Type"), body}
		w.Header().Set("Content-Type", tsvType)
		io.WriteString(w, "?x\n")
	}))
	defer srv.Close()
	if _, err := NewHTTP("ep", srv.URL).Query(context.Background(), query); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.method != http.MethodPost || r.contentType != "application/sparql-query" || string(r.body) != query {
		t.Fatalf("%s with Content-Type %q and body %q, want POST application/sparql-query %q", r.method, r.contentType, r.body, query)
	}
}

// An endpoint that honours Accept for ASK too answers a TSV-first header
// with a one-variable table, as Jena does; the client asks for JSON on ASK
// so Ask still reads a boolean.
func TestHTTPAskAsksForJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sparql.Negotiate(r.Header.Get("Accept"), false) == sparql.FormatTSV {
			w.Header().Set("Content-Type", tsvType)
			io.WriteString(w, "?_askResult\ntrue\n")
			return
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		io.WriteString(w, `{"head":{},"boolean":true}`)
	}))
	defer srv.Close()
	ep := NewHTTP("ep", srv.URL)
	for _, q := range []string{
		"ASK { ?s ?p ?o }",
		"# probe\nPREFIX ex: <http://ex.org/>\nBASE <http://ex.org/>\nask WHERE { ?s ex:p ?o }",
	} {
		ok, err := Ask(context.Background(), ep, q)
		if err != nil || !ok {
			t.Errorf("Ask(%q) = %v, %v; want true, nil", q, ok, err)
		}
	}
}

// A body that ends inside a line is a cut, even when its framing says it
// is complete.
func TestHTTPTSVMidLineCut(t *testing.T) {
	url := tsvServer(t, tsvType, "?x\n<http://ex.org/a>\n<http://ex.org/b")
	_, err := NewHTTP("ep", url).Query(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// A connection closed right after a complete line, before the framing's
// end, is an error and never a clean io.EOF.
func TestHTTPTSVConnectionCut(t *testing.T) {
	data := "?x\n<http://ex.org/a>\n"
	for name, raw := range map[string]string{
		"content-length": "HTTP/1.1 200 OK\r\nContent-Type: " + tsvType + "\r\nContent-Length: 200\r\n\r\n" + data,
		"chunked": "HTTP/1.1 200 OK\r\nContent-Type: " + tsvType + "\r\nTransfer-Encoding: chunked\r\n\r\n" +
			fmt.Sprintf("%x\r\n%s\r\n", len(data), data),
	} {
		t.Run(name, func(t *testing.T) {
			rd, err := NewHTTP("ep", rawServer(t, raw)).QueryStream(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			if row, err := rd.Read(); err != nil || row[0] != rdf.NewIRI("http://ex.org/a") {
				t.Fatalf("first row = %v, %v", row, err)
			}
			if _, err := rd.Read(); err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("after the cut: %v, want an error other than io.EOF", err)
			}
		})
	}
}

// Without length framing a cut at a line boundary is undetectable, so such
// a response in either TSV form is refused outright.
func TestHTTPTSVCloseDelimited(t *testing.T) {
	for _, ct := range []string{tsvType, refsType} {
		raw := "HTTP/1.1 200 OK\r\nContent-Type: " + ct + "\r\nConnection: close\r\n\r\n?x\n<http://ex.org/a>\n#0\n"
		_, err := NewHTTP("ep", rawServer(t, raw)).QueryStream(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
		var ee *EndpointError
		if !errors.As(err, &ee) || ee.Endpoint != "ep" {
			t.Fatalf("%s: err = %v, want *EndpointError for ep", ct, err)
		}
	}
}

const refsType = "text/x-lusail-tsv-refs; charset=utf-8"

// Whichever of its three formats the server answers in, the client reads
// the same rows from one request.
func TestHTTPFormatsOneRequest(t *testing.T) {
	a := rdf.NewIRI("http://ex.org/a")
	for _, tc := range []struct{ contentType, body string }{
		{refsType, "?x\t?y\n<http://ex.org/a>\t#0\n"},
		{tsvType, "?x\t?y\n<http://ex.org/a>\t<http://ex.org/a>\n"},
		{"application/sparql-results+json", `{"head":{"vars":["x","y"]},"results":{"bindings":[` +
			`{"x":{"type":"uri","value":"http://ex.org/a"},"y":{"type":"uri","value":"http://ex.org/a"}}]}}`},
	} {
		var requests atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			w.Header().Set("Content-Type", tc.contentType)
			io.WriteString(w, tc.body)
		}))
		res, err := NewHTTP("ep", srv.URL).Query(context.Background(), "SELECT ?x ?y WHERE { ?x ?p ?y }")
		srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.contentType, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != a || res.Rows[0][1] != a || requests.Load() != 1 {
			t.Errorf("%s: rows %v from %d requests, want [[a a]] from 1", tc.contentType, res.Rows, requests.Load())
		}
	}
}

// An endpoint that fails after its first rows aborts the response; the
// client reports an error, never the rows so far as the whole answer.
func TestHTTPTSVRefsAbortedStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", refsType)
		io.WriteString(w, "?x\n<http://ex.org/a>\n#0\n")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer srv.Close()
	res, err := NewHTTP("ep", srv.URL).Query(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
	if err == nil {
		t.Fatalf("aborted stream read as %d complete rows", len(res.Rows))
	}
}

func TestHTTPTSVResponseTooLarge(t *testing.T) {
	body := "?x\n" + strings.Repeat("<http://ex.org/resource>\n", 100)
	ep, err := NewHTTPWithOptions("cap", tsvServer(t, tsvType, body), HTTPOptions{MaxResponseBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ep.Query(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
	if !errors.Is(err, ErrResponseTooLarge) || AsEndpointError(err) == nil {
		t.Fatalf("err = %v, want an EndpointError wrapping ErrResponseTooLarge", err)
	}
}

func TestHTTPUnsupportedContentType(t *testing.T) {
	url := tsvServer(t, "text/html; charset=utf-8", "<html>maintenance</html>")
	_, err := NewHTTP("ep", url).QueryStream(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
	if AsEndpointError(err) == nil || !strings.Contains(err.Error(), "text/html") {
		t.Fatalf("err = %v, want an EndpointError naming text/html", err)
	}
}

// TSV as third-party endpoints write it decodes through the client.
func TestHTTPThirdPartyTSV(t *testing.T) {
	url := tsvServer(t, "text/tab-separated-values", "$x\t$y\r\n5\ttrue\r\n<http://ex.org/a>\t\r\n")
	res, err := NewHTTP("ep", url).Query(context.Background(), "SELECT ?x ?y WHERE { ?x ?p ?y }")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]rdf.Term{
		{rdf.NewTypedLiteral("5", rdf.XSDInteger), rdf.NewBoolean(true)},
		{rdf.NewIRI("http://ex.org/a"), {}},
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != want[0][0] || res.Rows[0][1] != want[0][1] ||
		res.Rows[1][0] != want[1][0] || !res.Rows[1][1].IsZero() {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

// The default client keeps a full ERH pool's connections idle between
// requests: 16 concurrent queries, three rounds, 16 connections in all.
// The default transport keeps two per host, so each later round would
// dial 14 more.
func TestHTTPReusesPoolConnections(t *testing.T) {
	const concurrent, rounds = 16, 3
	var opened atomic.Int64
	var round sync.WaitGroup
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		round.Done()
		round.Wait() // every request of the round is in flight at once
		w.Header().Set("Content-Type", tsvType)
		io.WriteString(w, "?x\n<http://ex.org/a>\n")
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	ep := NewHTTP("ep", srv.URL)
	for r := 0; r < rounds; r++ {
		round.Add(concurrent)
		var wg sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ep.Query(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }"); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		time.Sleep(50 * time.Millisecond) // the transport parks finished connections asynchronously
	}
	if n := opened.Load(); n > concurrent {
		t.Errorf("%d rounds of %d concurrent queries opened %d connections, want at most %d", rounds, concurrent, n, concurrent)
	}
}
