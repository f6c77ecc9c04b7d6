package core

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"testing"

	"lusail/internal/client"
	"lusail/internal/endpoint"
	"lusail/internal/eval"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/store"
)

// shorthandInteger matches a canonical xsd:integer in a TSV body.
var shorthandInteger = regexp.MustCompile(`"(-?[0-9]+)"\^\^<http://www\.w3\.org/2001/XMLSchema#integer>`)

// mixedFormats is a federation of two endpoints that spell the same
// integers differently: "json" answers JSON (typed literals), "tsv" answers
// TSV with Turtle shorthand (30 for "30"^^xsd:integer). It returns the
// federation and the oracle over the union of their data.
func mixedFormats(t *testing.T) (*federation.Federation, *store.Store) {
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
	t.Cleanup(jsonSrv.Close)
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
	t.Cleanup(tsvSrv.Close)

	fed, err := federation.New(client.NewHTTP("json", jsonSrv.URL), client.NewHTTP("tsv", tsvSrv.URL))
	if err != nil {
		t.Fatal(err)
	}
	oracle := store.New()
	oracle.AddAll(jsonData)
	oracle.AddAll(tsvData)
	return fed, oracle
}

// The engine joins across mixedFormats' endpoints on their integers. The
// dictionary must give both spellings one id, so the join rows are the
// centralized answer's, through bound joins and hash joins.
func TestMixedFormatsJoinOnIntegers(t *testing.T) {
	fed, oracle := mixedFormats(t)
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

// drain reads every row of a cursor as sorted N-Triples lines and closes
// it, keeping duplicates.
func drain(t *testing.T, rows *Rows) []string {
	t.Helper()
	var out []string
	for rows.Next() {
		var b []byte
		for _, term := range rows.Row() {
			b = rdf.AppendTerm(append(b, ' '), term)
		}
		out = append(out, string(b))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// A warm re-run on one engine finds every term in the dictionary the first
// run filled: it adds none and returns the same rows.
func TestSharedDictWarmRerun(t *testing.T) {
	eps, oracle := paperFederation(true)
	e := newEngine(t, eps, DefaultOptions())
	want := oracleResults(t, oracle, qa)
	var runs [2][]string
	var terms [2]int
	var dicts [2]*rdf.Dict
	for i := range runs {
		rows, err := e.Select(context.Background(), qa)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = drain(t, rows)
		terms[i], dicts[i] = rows.Profile().Terms, rows.dict
	}
	if dicts[1] != dicts[0] {
		t.Error("the warm run did not reuse the engine's dictionary")
	}
	if terms[0] == 0 || terms[1] != terms[0] {
		t.Errorf("dictionary held %d terms after the first run, %d after the warm one", terms[0], terms[1])
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("warm run rows differ:\n%v\n%v", runs[0], runs[1])
	}
	if len(runs[0]) != len(want.Rows) {
		t.Errorf("%d rows, oracle %d", len(runs[0]), len(want.Rows))
	}
}

// An alias one execution records serves the next: on one engine, a query
// answered only from the JSON endpoint (typed literals) and one answered
// only from the TSV endpoint (shorthand) run as separate executions, in
// both orders, and then the join across them. Each matches the oracle, so
// both spellings of an integer stayed one id across executions.
func TestSharedDictAliasesAcrossExecutions(t *testing.T) {
	fed, oracle := mixedFormats(t)
	side := func(prefix string) string {
		return `SELECT ?s ?p ?n WHERE { ?s ?p ?n FILTER(STRSTARTS(STR(?s), "http://ex.org/` + prefix + `")) }`
	}
	jsonSide, tsvSide := side("a"), side("b")
	const join = `SELECT ?a ?b ?n WHERE { ?a <http://ex.org/age> ?n . ?b <http://ex.org/years> ?n }`
	for _, order := range [][]string{{jsonSide, tsvSide}, {tsvSide, jsonSide}} {
		e := MustNew(fed, DefaultOptions())
		for _, q := range append(order, join) {
			got, _ := runLusail(t, e, q)
			assertSameResults(t, got, oracleResults(t, oracle, q))
		}
	}
}

// Once the shared dictionary holds more key text than JoinSpillBytes, the
// closing cursor retires it: the next execution starts on a fresh one,
// and a cursor opened before the swap and drained after it still reads its
// rows through the old one.
func TestSharedDictRetiredPastSpillBudget(t *testing.T) {
	eps, oracle := paperFederation(true)
	opts := DefaultOptions()
	opts.JoinSpillBytes = 1
	e := newEngine(t, eps, opts)
	want := oracleResults(t, oracle, qa)
	ctx := context.Background()

	old := e.dict.Load()
	early, err := e.Select(ctx, qa)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runLusail(t, e, qa)
	assertSameResults(t, got, want)
	if e.dict.Load() == old {
		t.Fatalf("dictionary of %d bytes not retired past a 1-byte budget", old.Bytes())
	}
	if early.dict != old {
		t.Fatal("the open cursor lost its dictionary")
	}
	if rows := drain(t, early); len(rows) != len(want.Rows) {
		t.Errorf("cursor drained after the swap: %d rows, oracle %d", len(rows), len(want.Rows))
	}

	next, err := e.Select(ctx, qa)
	if err != nil {
		t.Fatal(err)
	}
	if next.dict == old {
		t.Fatal("the next execution started on the retired dictionary")
	}
	fresh := newEngine(t, eps, opts)
	alone, err := fresh.Select(ctx, qa)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, next)
	drain(t, alone)
	if next.Profile().Terms != alone.Profile().Terms {
		t.Errorf("next execution's dictionary holds %d terms, a fresh engine's %d", next.Profile().Terms, alone.Profile().Terms)
	}
}

// Eight Selects run concurrently on one engine, all interning into its
// one dictionary, and each returns the oracle's rows. Run under -race.
func TestSharedDictConcurrentSelects(t *testing.T) {
	eps, oracle := paperFederation(true)
	e := newEngine(t, eps, DefaultOptions())
	queries := []string{
		qa,
		`PREFIX ub: <http://lubm.org/ub#> SELECT ?s ?c WHERE { ?s ub:takesCourse ?c . ?p ub:teacherOf ?c }`,
		`PREFIX ub: <http://lubm.org/ub#> SELECT ?p ?a WHERE { ?p ub:PhDDegreeFrom ?u . ?u ub:address ?a }`,
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
	}
	want := make([]int, len(queries)) // rows with duplicates
	for i, q := range queries {
		res, err := eval.New(oracle).QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Len()
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := w % len(queries)
			rows, err := e.Select(context.Background(), queries[i])
			if err != nil {
				t.Error(err)
				return
			}
			n := 0
			for rows.Next() {
				for _, term := range rows.Row() {
					if term.IsZero() {
						t.Errorf("query %d: unbound cell", i)
					}
				}
				n++
			}
			if err := rows.Err(); err != nil {
				t.Error(err)
			}
			rows.Close()
			if n != want[i] {
				t.Errorf("query %d: %d rows, oracle %d", i, n, want[i])
			}
		}()
	}
	wg.Wait()
}
