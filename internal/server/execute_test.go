package server_test

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/server"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// twoMembers is a federation whose members answer disjoint predicates:
// ?s <http://ex/p> ?o only at "a" (two rows), ?s <http://ex/q> ?o only at
// "b" (one row). Both are wrapped for fault injection, healthy at first.
func twoMembers(t *testing.T, mode core.FailureMode) (srv *server.Server, a, b *resilience.Faulty) {
	t.Helper()
	iri := rdf.NewIRI
	a = resilience.WithFaults(client.NewInProcess("a", store.NewFromTriples([]rdf.Triple{
		{S: iri("http://ex/a1"), P: iri("http://ex/p"), O: rdf.NewLiteral("1")},
		{S: iri("http://ex/a2"), P: iri("http://ex/p"), O: rdf.NewLiteral("2")},
	})), resilience.FaultSpec{})
	b = resilience.WithFaults(client.NewInProcess("b", store.NewFromTriples([]rdf.Triple{
		{S: iri("http://ex/b1"), P: iri("http://ex/q"), O: rdf.NewLiteral("3")},
	})), resilience.FaultSpec{})
	opts := core.DefaultOptions()
	opts.OnEndpointFailure = mode
	eng, err := core.New(federation.MustNew(a, b), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv = startServer(t, eng, func(cfg *server.Config) {
		cfg.DisableResultCache = true // every request executes
	})
	return srv, a, b
}

const (
	// unionQuery's first branch is answered by "a", its second by "b";
	// the branches run one after another.
	unionQuery = `SELECT ?s WHERE { { ?s <http://ex/p> ?o } UNION { ?s <http://ex/q> ?o } }`
	unionAsk   = `ASK { { ?s <http://ex/p> ?o } UNION { ?s <http://ex/q> ?o } }`
)

// formatCases are the requests of every form and format lusaild answers:
// each SELECT format by its Accept header, and ASK.
var formatCases = []struct {
	name, accept, query string
}{
	{"JSON", "application/sparql-results+json", unionQuery},
	{"TSV", "text/tab-separated-values", unionQuery},
	{"CSV", "text/csv", unionQuery},
	{"XML", "application/sparql-results+xml", unionQuery},
	{"ASK", "", unionAsk},
}

// send issues one query and reads the whole body, returning the read
// error instead of failing on it.
func send(t *testing.T, srv *server.Server, accept, query string) (*http.Response, string, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL+"?query="+url.QueryEscape(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, string(body), err
}

// parseAnswer decodes a complete body in the format its Content-Type names.
func parseAnswer(t *testing.T, resp *http.Response, body string) *sparql.Results {
	t.Helper()
	f, ok := sparql.FormatOf(resp.Header.Get("Content-Type"))
	if !ok {
		t.Fatalf("Content-Type %q", resp.Header.Get("Content-Type"))
	}
	var res *sparql.Results
	var err error
	switch f {
	case sparql.FormatJSON:
		res, err = sparql.ParseResultsJSON([]byte(body))
	case sparql.FormatXML:
		res, err = sparql.ParseResultsXML([]byte(body))
	case sparql.FormatTSV:
		var d *sparql.TSVDecoder
		if d, err = sparql.NewTSVDecoder(io.NopCloser(strings.NewReader(body))); err == nil {
			res, err = sparql.ReadAllRows(d)
		}
	case sparql.FormatCSV:
		lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
		res = sparql.NewResults(strings.Split(lines[0], ","))
		for _, l := range lines[1:] {
			res.Rows = append(res.Rows, []rdf.Term{rdf.NewIRI(l)})
		}
	}
	if err != nil {
		t.Fatalf("%q: %v", body, err)
	}
	return res
}

// A healthy federation answers every form and format completely, with no
// degradation trailer.
func TestExecuteEveryFormat(t *testing.T) {
	srv, _, _ := twoMembers(t, core.FailFast)
	for _, tc := range formatCases {
		resp, body, err := send(t, srv, tc.accept, tc.query)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, read error %v: %s", tc.name, resp.StatusCode, err, body)
		}
		res := parseAnswer(t, resp, body)
		if tc.name == "ASK" {
			if !res.IsBoolean || !res.Boolean {
				t.Errorf("ASK = %+v", res)
			}
		} else if res.Len() != 3 {
			t.Errorf("%s: %d rows, want 3: %q", tc.name, res.Len(), body)
		}
		if got := resp.Trailer.Get("X-Lusail-Degraded"); got != "" {
			t.Errorf("%s: X-Lusail-Degraded %q on a complete answer", tc.name, got)
		}
	}

	// A sema warning describes the query, not the answer.
	resp, body, err := send(t, srv, "", `SELECT ?a ?b WHERE { ?a <http://ex/p> ?x . ?b <http://ex/q> ?y }`)
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Lusail-Sema-Warnings") == "" {
		t.Fatalf("cartesian query: status %d, read error %v, sema warnings %q: %s",
			resp.StatusCode, err, resp.Header.Get("X-Lusail-Sema-Warnings"), body)
	}
	if got := resp.Trailer.Get("X-Lusail-Degraded"); got != "" {
		t.Errorf("sema warnings set X-Lusail-Degraded %q", got)
	}
}

// Under FailFast, a fault before the first row is a clean 500 carrying
// the error, in every format.
func TestExecuteFailsBeforeFirstRow(t *testing.T) {
	srv, a, _ := twoMembers(t, core.FailFast)
	for _, tc := range formatCases {
		send(t, srv, tc.accept, tc.query) // plan while healthy
		a.SetSpec(resilience.FaultSpec{ErrorRate: 1})
		resp, body, err := send(t, srv, tc.accept, tc.query)
		a.SetSpec(resilience.FaultSpec{})
		if err != nil {
			t.Fatalf("%s: read error %v, want a complete error response", tc.name, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, resilience.ErrInjected.Error()) {
			t.Errorf("%s: status %d, body %q; want 500 with the endpoint's error", tc.name, resp.StatusCode, body)
		}
	}
}

// Under FailFast, a fault after the first row breaks the transfer in every
// SELECT format: the client gets a read error, never a clean short body.
// An ASK is answered by its first row, so a fault in a later branch is
// never reached.
func TestExecuteAbortsAfterFirstRow(t *testing.T) {
	srv, _, b := twoMembers(t, core.FailFast)
	for _, tc := range formatCases {
		send(t, srv, tc.accept, tc.query) // plan while healthy
		b.SetSpec(resilience.FaultSpec{ErrorRate: 1})
		resp, body, err := send(t, srv, tc.accept, tc.query)
		b.SetSpec(resilience.FaultSpec{})
		if tc.name == "ASK" {
			if err != nil || resp.StatusCode != http.StatusOK || !parseAnswer(t, resp, body).Boolean {
				t.Errorf("ASK: status %d, read error %v, body %q; want true", resp.StatusCode, err, body)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK || err == nil {
			t.Errorf("%s: status %d, read error %v, body %q; want a 200 whose body breaks off", tc.name, resp.StatusCode, err, body)
		}
	}
}

// Under Degrade, every form and format reports the left-out endpoint in
// the X-Lusail-Degraded trailer.
func TestExecuteReportsDegradation(t *testing.T) {
	srv, _, b := twoMembers(t, core.Degrade)
	b.SetSpec(resilience.FaultSpec{ErrorRate: 1})
	cases := append(formatCases[:len(formatCases)-1:len(formatCases)-1],
		struct{ name, accept, query string }{"ASK", "", `ASK { ?s <http://ex/q> ?o }`})
	for _, tc := range cases {
		resp, body, err := send(t, srv, tc.accept, tc.query)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, read error %v: %s", tc.name, resp.StatusCode, err, body)
		}
		res := parseAnswer(t, resp, body)
		if tc.name == "ASK" {
			if !res.IsBoolean || res.Boolean {
				t.Errorf("ASK = %+v, want false without b", res)
			}
		} else if res.Len() != 2 {
			t.Errorf("%s: %d rows, want a's 2: %q", tc.name, res.Len(), body)
		}
		if got := resp.Trailer.Get("X-Lusail-Degraded"); got == "" || got == "0" {
			t.Errorf("%s: X-Lusail-Degraded trailer %q, want the failures counted", tc.name, got)
		}
	}
}
