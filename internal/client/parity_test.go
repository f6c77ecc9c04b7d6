package client_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"lusail/internal/client"
	"lusail/internal/diskstore"
	"lusail/internal/endpoint"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

var parityCases = []struct{ name, query string }{
	{"select", `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } ORDER BY ?s ?o`},
	{"empty-select", `SELECT ?s WHERE { ?s <http://ex/missing> ?o }`},
	{"ask-true", `ASK { ?s <http://ex/p> <http://ex/b> }`},
	{"ask-false", `ASK { ?s <http://ex/p> <http://ex/missing> }`},
	{"parse-error", `SELECT ?s WHERE { ?s`},
}

func parityStore() *store.Store {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	return store.NewFromTriples([]rdf.Triple{
		{S: ex("a"), P: ex("p"), O: ex("b")},
		{S: ex("a"), P: ex("p"), O: rdf.NewLangLiteral("b", "en")},
		{S: ex("c"), P: ex("p"), O: rdf.NewLiteral("plain")},
		{S: ex("c"), P: ex("q"), O: ex("a")},
	})
}

// answer is what a query returns through one of the two request methods.
type answer struct {
	res *sparql.Results
	err bool
}

// ask runs q through Query, and through QueryStream drained by hand, and
// fails the test unless both agree. A failing query must fail before the
// head, never with a reader.
func ask(t *testing.T, ep client.Endpoint, q string) answer {
	t.Helper()
	ctx := context.Background()
	res, err := ep.Query(ctx, q)
	rd, serr := ep.QueryStream(ctx, q)
	if (err != nil) != (serr != nil) {
		t.Fatalf("%s: Query error %v, QueryStream error %v", ep.Name(), err, serr)
	}
	if serr != nil {
		if rd != nil {
			t.Fatalf("%s: QueryStream returned a reader with its error", ep.Name())
		}
		return answer{err: true}
	}
	streamed, serr := sparql.ReadAllRows(rd)
	if serr != nil {
		t.Fatalf("%s: draining the stream: %v", ep.Name(), serr)
	}
	if !reflect.DeepEqual(res, streamed) {
		t.Fatalf("%s: Query = %+v, Collect(QueryStream) = %+v", ep.Name(), res, streamed)
	}
	return answer{res: res}
}

// Every endpoint implementation answers each case identically through
// Query and QueryStream, on both store backends, and Instrumented counts
// the same requests, rows, bytes, source probes and errors whether the
// endpoint it wraps is in the process or behind HTTP.
func TestEndpointParity(t *testing.T) {
	mem := parityStore()
	path := filepath.Join(t.TempDir(), "parity.lds")
	if err := diskstore.BuildFromGraph(path, mem, diskstore.BuildOptions{DictBlockSize: 4, TripleBlockSize: 8}); err != nil {
		t.Fatal(err)
	}
	disk, err := diskstore.Open(path, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, backend := range []struct {
		name string
		g    store.Graph
	}{{"memory", mem}, {"disk", disk}} {
		srv := httptest.NewServer(endpoint.NewHandler("ep", backend.g))
		defer srv.Close()
		local := client.NewInProcess("ep", backend.g)
		remote := client.NewHTTP("ep", srv.URL)
		for _, c := range parityCases {
			t.Run(backend.name+"/"+c.name, func(t *testing.T) {
				var inProc, overHTTP client.Metrics
				eps := []client.Endpoint{
					local,
					remote,
					client.NewInstrumented(local, &inProc),
					client.NewInstrumented(remote, &overHTTP),
					client.NewLatency(local, 0, 1<<30),
					resilience.WithFaults(local, resilience.FaultSpec{}),
				}
				want := ask(t, local, c.query)
				for _, ep := range eps[1:] {
					if got := ask(t, ep, c.query); !reflect.DeepEqual(got, want) {
						t.Errorf("%T answers %+v, InProcess %+v", ep, got, want)
					}
				}
				if a, b := inProc.Snapshot(), overHTTP.Snapshot(); a != b {
					t.Errorf("Instrumented in process %+v, over HTTP %+v", a, b)
				}
				if want.err && inProc.Snapshot().Errors != 2 {
					t.Errorf("%d errors counted, want 2", inProc.Snapshot().Errors)
				}
			})
		}
	}
}
