package bench

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// forceFormat is an http.RoundTripper that rewrites every request's Accept
// header to one results format, and counts the requests and the response
// types it sees.
type forceFormat struct {
	accept   string
	requests atomic.Int64
	mu       sync.Mutex
	types    map[string]int
}

func (f *forceFormat) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set("Accept", f.accept)
	f.requests.Add(1)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		f.mu.Lock()
		f.types[resp.Header.Get("Content-Type")]++
		f.mu.Unlock()
	}
	return resp, err
}

// TestWireFormatMetamorphic: the results format between the engine and
// its endpoints changes the bytes on the wire, never the answer. Over
// HTTP endpoints, the LUBM and LRB corpora run once per format the
// endpoints offer the engine (TSV with back-references, TSV, JSON), each
// on a cold engine, and every query returns the same multiset from the
// same number of requests.
func TestWireFormatMetamorphic(t *testing.T) {
	formats := []sparql.Format{sparql.FormatTSVRefs, sparql.FormatTSV, sparql.FormatJSON}
	for _, corpus := range []struct {
		name     string
		datasets []Dataset
		queries  []Query
	}{
		{"lubm", GenerateLUBM(DefaultLUBM(2)), LUBMQueries()},
		{"lrb", GenerateLRB(DefaultLRB()), LRBQueries()},
	} {
		var urls []string
		for _, ds := range corpus.datasets {
			srv := httptest.NewServer(endpoint.NewHandler(ds.Name, store.NewFromTriples(ds.Triples)))
			defer srv.Close()
			urls = append(urls, srv.URL)
		}
		type answer struct {
			rows     *sparql.Results
			requests int64
		}
		var first map[string]answer
		for _, f := range formats {
			tr := &forceFormat{accept: f.ContentType(), types: map[string]int{}}
			hc := &http.Client{Transport: tr}
			var eps []client.Endpoint
			for i, ds := range corpus.datasets {
				eps = append(eps, client.NewHTTPWithClient(ds.Name, urls[i], hc))
			}
			fed, err := federation.New(eps...)
			if err != nil {
				t.Fatal(err)
			}
			eng := core.MustNew(fed, core.DefaultOptions())
			got := map[string]answer{}
			for _, q := range corpus.queries {
				before := tr.requests.Load()
				res, _, err := eng.QueryString(context.Background(), q.Text)
				if err != nil {
					t.Fatalf("%s %s over %s: %v", corpus.name, q.Name, f.ContentType(), err)
				}
				res.Sort()
				got[q.Name] = answer{res, tr.requests.Load() - before}
			}
			if tr.types[f.ContentType()] == 0 || len(tr.types) > 2 {
				t.Errorf("%s: forcing %s, the endpoints answered %v", corpus.name, f.ContentType(), tr.types)
			}
			if first == nil {
				first = got
				continue
			}
			for _, q := range corpus.queries {
				want, g := first[q.Name], got[q.Name]
				if sparql.MustParse(q.Text).Limit >= 0 {
					// Which rows fill a LIMIT depends on arrival order.
					if len(g.rows.Rows) != len(want.rows.Rows) {
						t.Errorf("%s %s over %s: %d rows, %d over %s (LIMIT)", corpus.name, q.Name, f.ContentType(),
							len(g.rows.Rows), len(want.rows.Rows), formats[0].ContentType())
					}
				} else if !reflect.DeepEqual(g.rows.Rows, want.rows.Rows) {
					t.Errorf("%s %s over %s: %d rows, %d over %s", corpus.name, q.Name, f.ContentType(),
						len(g.rows.Rows), len(want.rows.Rows), formats[0].ContentType())
				}
				if g.requests != want.requests {
					t.Errorf("%s %s over %s: %d requests, %d over %s", corpus.name, q.Name, f.ContentType(),
						g.requests, want.requests, formats[0].ContentType())
				}
			}
		}
	}
}
