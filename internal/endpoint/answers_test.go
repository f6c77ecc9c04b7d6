package endpoint

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"lusail/internal/diskstore"
	"lusail/internal/rdf"
	"lusail/internal/store"
)

var updateAnswers = flag.Bool("update", false, "rewrite testdata/answers-*.golden from the current handler")

// answerStore is the dataset the answer goldens are served from: a small
// university with a blank node, language-tagged and typed literals, and a
// pattern that repeats its variable (?x knows ?x).
func answerStore() *store.Store {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	typ := rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	return store.NewFromTriples([]rdf.Triple{
		{S: ex("kim"), P: typ, O: ex("Student")},
		{S: ex("lee"), P: typ, O: ex("Student")},
		{S: ex("ann"), P: typ, O: ex("Student")},
		{S: ex("tim"), P: typ, O: ex("Professor")},
		{S: ex("kim"), P: ex("advisor"), O: ex("tim")},
		{S: ex("lee"), P: ex("advisor"), O: ex("tim")},
		{S: ex("tim"), P: ex("teacherOf"), O: ex("db")},
		{S: ex("tim"), P: ex("teacherOf"), O: ex("os")},
		{S: ex("kim"), P: ex("takesCourse"), O: ex("db")},
		{S: ex("kim"), P: ex("takesCourse"), O: ex("os")},
		{S: ex("lee"), P: ex("takesCourse"), O: ex("db")},
		{S: ex("kim"), P: ex("age"), O: rdf.NewInteger(25)},
		{S: ex("lee"), P: ex("age"), O: rdf.NewInteger(31)},
		{S: ex("ann"), P: ex("age"), O: rdf.NewDouble(22.5)},
		{S: ex("kim"), P: ex("name"), O: rdf.NewLangLiteral("Kim \"K\" Park", "en")},
		{S: ex("lee"), P: ex("name"), O: rdf.NewLiteral("Lee\tLi, Jr.")},
		{S: ex("tim"), P: ex("name"), O: rdf.NewTypedLiteral("Tim", rdf.XSDString)},
		{S: ex("kim"), P: ex("knows"), O: ex("kim")},
		{S: ex("kim"), P: ex("knows"), O: rdf.NewBlank("b0")},
		{S: rdf.NewBlank("b0"), P: ex("name"), O: rdf.NewLiteral("<anon> & co")},
	})
}

// answerForms are the request shapes an endpoint answers: the forms of
// the SPARQL subset, and the probe and check batches Lusail's planner
// sends.
var answerForms = []struct{ name, query string }{
	{"select", `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`},
	{"select-repeats", `SELECT ?s ?a ?c WHERE { ?s <http://ex/advisor> ?a . ?s <http://ex/takesCourse> ?c }`},
	{"select-distinct", `SELECT DISTINCT ?a WHERE { ?s <http://ex/advisor> ?a . ?s <http://ex/takesCourse> ?c }`},
	{"offset-limit", `SELECT ?s ?c WHERE { ?s <http://ex/takesCourse> ?c } OFFSET 1 LIMIT 2`},
	{"order-by-unprojected", `SELECT ?s WHERE { ?s <http://ex/age> ?a } ORDER BY DESC(?a)`},
	{"group-count", `SELECT ?s (COUNT(?c) AS ?n) WHERE { ?s <http://ex/takesCourse> ?c } GROUP BY ?s`},
	{"count-probe", `SELECT (COUNT(*) AS ?c) WHERE { ?s <http://ex/takesCourse> ?o }`},
	{"count-batch", `SELECT ?lusail_a0 ?lusail_a1 ?lusail_a2 ?lusail_a3 WHERE {
		{ SELECT (COUNT(*) AS ?lusail_a0) WHERE { ?s <http://ex/advisor> ?o } }
		{ SELECT (COUNT(*) AS ?lusail_a1) WHERE { ?x <http://ex/knows> ?x } }
		{ SELECT (COUNT(*) AS ?lusail_a2) WHERE { ?s ?p "absent" } }
		{ SELECT (COUNT(*) AS ?lusail_a3) WHERE { <http://ex/nobody> ?p ?o } } }`},
	{"check-batch", `SELECT ?lusail_k0 ?lusail_k1 ?lusail_k2 WHERE {
		BIND(EXISTS { ?x <http://ex/advisor> ?y FILTER NOT EXISTS { SELECT ?y WHERE { ?y <http://ex/teacherOf> ?y_chko } } } AS ?lusail_k0)
		BIND(EXISTS { ?x <http://ex/advisor> ?y FILTER NOT EXISTS { SELECT ?y WHERE { ?y <http://ex/age> ?y_chko } } } AS ?lusail_k1)
		BIND(EXISTS { ?x <http://ex/takesCourse> ?c FILTER (?c != <http://ex/db>) } AS ?lusail_k2) }`},
	{"ask-true", `ASK { ?s <http://ex/advisor> <http://ex/tim> }`},
	{"ask-false", `ASK { ?s <http://ex/advisor> <http://ex/kim> }`},
}

var answerFormats = []struct{ name, accept string }{
	{"json", "application/sparql-results+json"},
	{"tsv", "text/tab-separated-values"},
	{"tsv-refs", "text/x-lusail-tsv-refs"},
	{"csv", "text/csv"},
	{"xml", "application/sparql-results+xml"},
}

// TestAnswerGoldens pins the bytes the handler answers every form with,
// in every results format, on both store backends.
func TestAnswerGoldens(t *testing.T) {
	st := answerStore()
	path := filepath.Join(t.TempDir(), "answers.lds")
	if err := diskstore.BuildFromGraph(path, st, diskstore.BuildOptions{DictBlockSize: 4, TripleBlockSize: 8}); err != nil {
		t.Fatal(err)
	}
	ds, err := diskstore.Open(path, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, backend := range []struct {
		name string
		g    store.Graph
	}{{"memory", st}, {"disk", ds}} {
		h := NewHandler("answers", backend.g)
		var got bytes.Buffer
		for _, form := range answerForms {
			for _, f := range answerFormats {
				req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(form.query), nil)
				req.Header.Set("Accept", f.accept)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				fmt.Fprintf(&got, "== %s %s: %d %s\n%s\n", form.name, f.name,
					rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
			}
		}
		golden := filepath.Join("testdata", "answers-"+backend.name+".golden")
		if *updateAnswers {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: answers differ from %s (go test -run TestAnswerGoldens -update rewrites it)\ngot:\n%s", backend.name, golden, got.Bytes())
		}
	}
}
