package core

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"lusail/internal/client"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/store"
)

// shorthandInteger matches a canonical xsd:integer in a TSV body.
var shorthandInteger = regexp.MustCompile(`"(-?[0-9]+)"\^\^<http://www\.w3\.org/2001/XMLSchema#integer>`)

// Two endpoints spell the same integers differently — one answers JSON
// (typed literals), the other TSV with Turtle shorthand (30 for
// "30"^^xsd:integer) — and the engine joins across them on those integers.
// The per-query dictionary must give both spellings one id, so the join
// rows are the centralized answer's, through bound joins and hash joins.
func TestMixedFormatsJoinOnIntegers(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	age, years := ex("age"), ex("years")
	jsonData := []rdf.Triple{
		t3(ex("a1"), age, rdf.NewInteger(30)),
		t3(ex("a2"), age, rdf.NewInteger(41)),
		t3(ex("a3"), age, rdf.NewInteger(7)),
		t3(ex("a4"), years, rdf.NewInteger(41)),
	}
	tsvData := []rdf.Triple{
		t3(ex("b1"), years, rdf.NewInteger(30)),
		t3(ex("b2"), years, rdf.NewInteger(41)),
		t3(ex("b3"), years, rdf.NewInteger(8)),
		t3(ex("b4"), age, rdf.NewInteger(8)),
	}
	jsonSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Set("Accept", "application/sparql-results+json")
		endpoint.NewHandler("json", store.NewFromTriples(jsonData)).ServeHTTP(w, r)
	}))
	defer jsonSrv.Close()
	tsvSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		endpoint.NewHandler("tsv", store.NewFromTriples(tsvData)).ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if ct := rec.Header().Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
			if ct != "application/sparql-results+json" {
				body = shorthandInteger.ReplaceAll(body, []byte("$1"))
			}
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer tsvSrv.Close()

	fed, err := federation.New(client.NewHTTP("json", jsonSrv.URL), client.NewHTTP("tsv", tsvSrv.URL))
	if err != nil {
		t.Fatal(err)
	}
	oracle := store.New()
	oracle.AddAll(jsonData)
	oracle.AddAll(tsvData)
	const q = `SELECT ?a ?b ?n WHERE { ?a <http://ex.org/age> ?n . ?b <http://ex.org/years> ?n }`
	want := oracleResults(t, oracle, q)
	if len(want.Rows) != 4 {
		t.Fatalf("oracle rows %v, want the 4 joins on 30, 41 and 8", want.Rows)
	}
	for _, disableSAPE := range []bool{false, true} {
		opts := DefaultOptions()
		opts.DisableSAPE = disableSAPE
		got, prof := runLusail(t, MustNew(fed, opts), q)
		assertSameResults(t, got, want)
		if prof.Terms == 0 {
			t.Error("Profile.Terms is 0")
		}
	}
	rows, err := MustNew(fed, DefaultOptions()).Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil || n != len(want.Rows) {
		t.Fatalf("cursor: %d rows, err %v", n, err)
	}
}
