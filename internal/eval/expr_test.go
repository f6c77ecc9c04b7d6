package eval

import (
	"strings"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/sparql/expr"
	"lusail/internal/store"
)

// evalFilter runs a query with the given filter over a one-row binding of
// convenience values and reports whether the row survives.
func evalFilter(t *testing.T, filter string) bool {
	t.Helper()
	st := store.NewFromTriples([]rdf.Triple{
		{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/int"), O: rdf.NewInteger(10)},
		{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/str"), O: rdf.NewLiteral("Hello World")},
		{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/lang"), O: rdf.NewLangLiteral("bonjour", "fr")},
		{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/dbl"), O: rdf.NewDouble(2.5)},
	})
	q := `SELECT ?s WHERE {
		?s <http://ex/int> ?i .
		?s <http://ex/str> ?t .
		?s <http://ex/lang> ?l .
		?s <http://ex/dbl> ?d .
		FILTER(` + filter + `)
	}`
	res, err := New(st).QueryString(q)
	if err != nil {
		t.Fatalf("filter %q: %v", filter, err)
	}
	return len(res.Rows) == 1
}

func TestArithmetic(t *testing.T) {
	keep := []string{
		`?i + 5 = 15`,
		`?i - 5 = 5`,
		`?i * 2 = 20`,
		`?i / 4 = 2.5`,
		`?d * 4 = ?i`,
		`-?i = -10`,
		`?i + ?d > 12 && ?i + ?d < 13`,
	}
	drop := []string{
		`?i / 0 = 1`,  // division by zero errors → row removed
		`?t + 1 = 2`,  // non-numeric arithmetic errors
		`?i + 5 = 14`, // plain false
	}
	for _, f := range keep {
		if !evalFilter(t, f) {
			t.Errorf("filter %q should keep the row", f)
		}
	}
	for _, f := range drop {
		if evalFilter(t, f) {
			t.Errorf("filter %q should drop the row", f)
		}
	}
}

func TestStringBuiltins(t *testing.T) {
	keep := []string{
		`STRLEN(?t) = 11`,
		`UCASE(?t) = "HELLO WORLD"`,
		`LCASE(?t) = "hello world"`,
		`STRSTARTS(?t, "Hello")`,
		`STRENDS(?t, "World")`,
		`CONTAINS(?t, "lo Wo")`,
		`SAMETERM(?t, "Hello World")`,
		`!SAMETERM(?t, ?l)`,
		`LANG(?l) = "fr"`,
		`LANG(?t) = ""`,
		`DATATYPE(?i) = <http://www.w3.org/2001/XMLSchema#integer>`,
		`DATATYPE(?t) = <http://www.w3.org/2001/XMLSchema#string>`,
		`ISLITERAL(?t) && ISIRI(?s) && !ISBLANK(?s)`,
		`REGEX(?t, "^hello", "i")`,
	}
	for _, f := range keep {
		if !evalFilter(t, f) {
			t.Errorf("filter %q should keep the row", f)
		}
	}
	if evalFilter(t, `REGEX(?t, "([")`) {
		t.Error("invalid regex should error out the row")
	}
	if evalFilter(t, `NOSUCHFUNC(?t)`) {
		t.Error("unknown function should error out the row")
	}
}

func TestBooleanLogicThreeValued(t *testing.T) {
	// SPARQL's || recovers from an error when the other side is true; &&
	// recovers when the other side is false.
	keep := []string{
		`?missing > 1 || ?i = 10`,
		`?i = 10 || ?missing > 1`,
		`!(?missing > 1 && ?i = 99)`, // && with false side is false; negated true
	}
	for _, f := range keep {
		if !evalFilter(t, f) {
			t.Errorf("filter %q should keep the row", f)
		}
	}
	drop := []string{
		`?missing > 1 && ?i = 10`, // error && true = error
		`?missing > 1 || ?i = 99`, // error || false = error
	}
	for _, f := range drop {
		if evalFilter(t, f) {
			t.Errorf("filter %q should drop the row", f)
		}
	}
}

func TestComparisonSemantics(t *testing.T) {
	keep := []string{
		`?i = 10.0`, // numeric cross-type equality
		`?t != "other"`,
		`"abc" < "abd"`,
		`?s = <http://ex/s>`, // IRI equality
		`?i >= 10 && ?i <= 10`,
	}
	for _, f := range keep {
		if !evalFilter(t, f) {
			t.Errorf("filter %q should keep the row", f)
		}
	}
	// IRI vs number comparison is a type error.
	if evalFilter(t, `?s < 5`) {
		t.Error("IRI < number should error")
	}
}

func TestEBVRules(t *testing.T) {
	keep := []string{
		`?i`, // non-zero numeric
		`?t`, // non-empty string
		`true`,
	}
	drop := []string{
		`?i - 10`, // zero
		`""`,      // empty string
		`false`,
	}
	for _, f := range keep {
		if !evalFilter(t, f) {
			t.Errorf("EBV of %q should be true", f)
		}
	}
	for _, f := range drop {
		if evalFilter(t, f) {
			t.Errorf("EBV of %q should be false", f)
		}
	}
	// IRIs have no EBV: error → row dropped.
	if evalFilter(t, `?s`) {
		t.Error("EBV of an IRI should error")
	}
}

func TestFilterBindingStandalone(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://p> ?x . FILTER(?x > 3 && CONTAINS(STR(?s), "ex")) }`)
	var f sparql.Expr
	for _, el := range q.Where.Elements {
		if ff, ok := el.(sparql.Filter); ok {
			f = ff.Expr
		}
	}
	b := map[string]rdf.Term{"s": rdf.NewIRI("http://ex/a"), "x": rdf.NewInteger(5)}
	if !expr.Holds(f, b) {
		t.Error("binding should pass the filter")
	}
	b["x"] = rdf.NewInteger(1)
	if expr.Holds(f, b) {
		t.Error("binding should fail the filter")
	}
	if expr.Holds(f, map[string]rdf.Term{}) {
		t.Error("empty binding should error → false")
	}
}

func TestSubSelectMemoInvalidation(t *testing.T) {
	st := store.NewFromTriples([]rdf.Triple{
		{S: rdf.NewIRI("http://ex/a"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/t1")},
	})
	e := New(st)
	q := sparql.MustParse(`SELECT ?x WHERE {
		?x <http://ex/p> ?o .
		FILTER EXISTS { SELECT ?x WHERE { ?x <http://ex/p> <http://ex/t1> } }
	}`)
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Mutate the store: the memoized sub-select must be invalidated.
	st.Add(rdf.Triple{S: rdf.NewIRI("http://ex/b"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/t1")})
	res, err = e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("after mutation rows = %d, want 2 (stale memo?)", len(res.Rows))
	}
}

func TestStreamLimitStopsEarly(t *testing.T) {
	st := store.New()
	for i := 0; i < 1000; i++ {
		st.Add(rdf.Triple{
			S: rdf.NewIRI("http://ex/s" + string(rune('a'+i%26))),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewInteger(int64(i)),
		})
	}
	e := New(st)
	res, err := e.QueryString(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	// LIMIT larger than result set returns everything.
	res, err = e.QueryString(`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } LIMIT 5000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1000 {
		t.Errorf("rows = %d, want 1000", len(res.Rows))
	}
	// LIMIT 0 is a valid, empty query.
	res, err = e.QueryString(`SELECT ?s WHERE { ?s <http://ex/p> ?o } LIMIT 0`)
	if err != nil || len(res.Rows) != 0 {
		t.Errorf("LIMIT 0: rows=%d err=%v", len(res.Rows), err)
	}
}

func TestStreamEquivalentToMaterialized(t *testing.T) {
	// The streaming path (LIMIT, filters at leaves) must agree with full
	// evaluation on a query whose filter rejects most rows.
	st := testStore()
	limited, err := New(st).QueryString(`SELECT ?s WHERE {
		?s <http://ex/age> ?a . FILTER(?a > 25) } LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(st).QueryString(`SELECT ?s WHERE {
		?s <http://ex/age> ?a . FILTER(?a > 25) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Rows) != len(full.Rows) {
		t.Errorf("stream %d rows, materialized %d", len(limited.Rows), len(full.Rows))
	}
}

func TestResultsJSONUnknownTermType(t *testing.T) {
	bad := `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"alien","value":"?"}}]}}`
	if _, err := sparql.ParseResultsJSON([]byte(bad)); err == nil || !strings.Contains(err.Error(), "unknown term type") {
		t.Errorf("err = %v", err)
	}
	// Virtuoso-style "typed-literal" is accepted.
	ok := `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"typed-literal","value":"5","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}`
	res, err := sparql.ParseResultsJSON([]byte(ok))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Datatype == "" {
		t.Error("typed-literal lost its datatype")
	}
}
