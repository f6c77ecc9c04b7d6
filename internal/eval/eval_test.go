package eval

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func testStore() *store.Store {
	// A tiny university-like graph.
	return store.NewFromTriples([]rdf.Triple{
		{S: iri("kim"), P: iri("advisor"), O: iri("joy")},
		{S: iri("kim"), P: iri("advisor"), O: iri("tim")},
		{S: iri("lee"), P: iri("advisor"), O: iri("ben")},
		{S: iri("kim"), P: iri("takesCourse"), O: iri("db")},
		{S: iri("lee"), P: iri("takesCourse"), O: iri("os")},
		{S: iri("joy"), P: iri("teacherOf"), O: iri("db")},
		{S: iri("tim"), P: iri("teacherOf"), O: iri("db")},
		{S: iri("ben"), P: iri("teacherOf"), O: iri("os")},
		{S: iri("kim"), P: rdf.NewIRI(rdf.RDFType), O: iri("Student")},
		{S: iri("lee"), P: rdf.NewIRI(rdf.RDFType), O: iri("Student")},
		{S: iri("joy"), P: rdf.NewIRI(rdf.RDFType), O: iri("Prof")},
		{S: iri("kim"), P: iri("age"), O: rdf.NewInteger(24)},
		{S: iri("lee"), P: iri("age"), O: rdf.NewInteger(29)},
		{S: iri("joy"), P: iri("name"), O: rdf.NewLangLiteral("Joy", "en")},
		{S: iri("tim"), P: iri("name"), O: rdf.NewLiteral("Tim Smith")},
	})
}

func mustRows(t *testing.T, st *store.Store, q string) *sparql.Results {
	t.Helper()
	res, err := New(st).QueryString(q)
	if err != nil {
		t.Fatalf("QueryString(%s): %v", q, err)
	}
	return res
}

func sortedValues(res *sparql.Results, v string) []string {
	var out []string
	for _, t := range res.Column(v) {
		out = append(out, t.Value)
	}
	sort.Strings(out)
	return out
}

func TestSingleSolutionPattern(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s WHERE { ?s <http://ex/takesCourse> <http://ex/db> }`)
	if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/kim"}) {
		t.Errorf("got %v", got)
	}
}

func TestBGPJoin(t *testing.T) {
	// Students taking a course taught by their advisor.
	res := mustRows(t, testStore(), `SELECT ?s ?p WHERE {
		?s <http://ex/advisor> ?p .
		?p <http://ex/teacherOf> ?c .
		?s <http://ex/takesCourse> ?c .
	}`)
	got := map[string]bool{}
	for i := range res.Rows {
		b := res.Binding(i)
		got[b["s"].Value+"|"+b["p"].Value] = true
	}
	want := map[string]bool{
		"http://ex/kim|http://ex/joy": true,
		"http://ex/kim|http://ex/tim": true,
		"http://ex/lee|http://ex/ben": true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSharedVariableWithinPattern(t *testing.T) {
	st := store.NewFromTriples([]rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("a")},
		{S: iri("a"), P: iri("p"), O: iri("b")},
	})
	res := mustRows(t, st, `SELECT ?x WHERE { ?x <http://ex/p> ?x }`)
	if got := sortedValues(res, "x"); !reflect.DeepEqual(got, []string{"http://ex/a"}) {
		t.Errorf("self-join pattern got %v", got)
	}
}

func TestFilterNumeric(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s WHERE { ?s <http://ex/age> ?a . FILTER(?a > 25) }`)
	if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/lee"}) {
		t.Errorf("got %v", got)
	}
}

func TestFilterAppliesAtGroupEnd(t *testing.T) {
	// FILTER written before the pattern that binds ?a must still see it.
	res := mustRows(t, testStore(), `SELECT ?s WHERE { FILTER(?a > 25) ?s <http://ex/age> ?a . }`)
	if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/lee"}) {
		t.Errorf("got %v", got)
	}
}

func TestFilterStringFunctions(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s WHERE { ?s <http://ex/name> ?n . FILTER CONTAINS(STR(?n), "Smith") }`)
	if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/tim"}) {
		t.Errorf("got %v", got)
	}
	res = mustRows(t, testStore(), `SELECT ?s WHERE { ?s <http://ex/name> ?n . FILTER(LANG(?n) = "en") }`)
	if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/joy"}) {
		t.Errorf("got %v", got)
	}
}

func TestFilterRegex(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s WHERE { ?s <http://ex/name> ?n . FILTER REGEX(STR(?n), "^tim", "i") }`)
	if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/tim"}) {
		t.Errorf("got %v", got)
	}
}

func TestOptional(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s ?n WHERE {
		?s a <http://ex/Student> .
		OPTIONAL { ?s <http://ex/name> ?n }
	}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	// Neither student has a name; ?n must be unbound but rows retained.
	for i := range res.Rows {
		if _, ok := res.Binding(i)["n"]; ok {
			t.Error("?n should be unbound")
		}
	}
}

func TestOptionalBinds(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?p ?n WHERE {
		?p <http://ex/teacherOf> ?c .
		OPTIONAL { ?p <http://ex/name> ?n }
	}`)
	withName := 0
	for i := range res.Rows {
		if _, ok := res.Binding(i)["n"]; ok {
			withName++
		}
	}
	if withName != 2 { // joy (lang) and tim (plain)... tim teaches db, joy teaches db, ben teaches os
		t.Errorf("rows with name = %d, want 2", withName)
	}
}

func TestUnion(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?x WHERE {
		{ ?x <http://ex/teacherOf> <http://ex/db> } UNION { ?x <http://ex/takesCourse> <http://ex/db> }
	}`)
	got := sortedValues(res, "x")
	want := []string{"http://ex/joy", "http://ex/kim", "http://ex/tim"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestValuesJoin(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s ?a WHERE {
		?s <http://ex/age> ?a .
		VALUES ?s { <http://ex/kim> <http://ex/nobody> }
	}`)
	if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/kim"}) {
		t.Errorf("got %v", got)
	}
}

func TestValuesUndef(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s ?a WHERE {
		?s <http://ex/age> ?a .
		VALUES (?s ?a) { (<http://ex/kim> UNDEF) }
	}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Binding(0)["a"] != rdf.NewInteger(24) {
		t.Errorf("a = %v", res.Binding(0)["a"])
	}
}

func TestNotExists(t *testing.T) {
	// Professors who teach nothing... everyone with a name who is not a teacher.
	res := mustRows(t, testStore(), `SELECT ?s WHERE {
		?s <http://ex/name> ?n .
		FILTER NOT EXISTS { ?s <http://ex/teacherOf> ?c }
	}`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0 (both named people teach)", len(res.Rows))
	}
	res = mustRows(t, testStore(), `SELECT ?s WHERE {
		?s a <http://ex/Student> .
		FILTER NOT EXISTS { ?s <http://ex/takesCourse> <http://ex/os> }
	}`)
	if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/kim"}) {
		t.Errorf("got %v", got)
	}
}

func TestExists(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s WHERE {
		?s a <http://ex/Student> .
		FILTER EXISTS { ?s <http://ex/takesCourse> <http://ex/db> }
	}`)
	if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/kim"}) {
		t.Errorf("got %v", got)
	}
}

func TestNotExistsWithSubSelect(t *testing.T) {
	// The exact Lusail check-query shape (paper Figure 5): find a ?p that has
	// an advisee but (locally) teaches nothing.
	st := testStore()
	st.Add(rdf.Triple{S: iri("zoe"), P: iri("advisor"), O: iri("ann")})
	q := `SELECT ?p WHERE {
		?s <http://ex/advisor> ?p .
		FILTER NOT EXISTS { SELECT ?p WHERE { ?p <http://ex/teacherOf> ?c } }
	} LIMIT 1`
	res := mustRows(t, st, q)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (ann advises but teaches nothing)", len(res.Rows))
	}
	if res.Binding(0)["p"] != iri("ann") {
		t.Errorf("p = %v, want ann", res.Binding(0)["p"])
	}
}

func TestSubSelectJoin(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s ?c WHERE {
		?s <http://ex/takesCourse> ?c .
		{ SELECT ?c WHERE { <http://ex/joy> <http://ex/teacherOf> ?c } }
	}`)
	if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/kim"}) {
		t.Errorf("got %v", got)
	}
}

func TestAsk(t *testing.T) {
	res := mustRows(t, testStore(), `ASK { ?s <http://ex/advisor> <http://ex/tim> }`)
	if !res.IsBoolean || !res.Boolean {
		t.Errorf("ASK = %+v, want true", res)
	}
	res = mustRows(t, testStore(), `ASK { ?s <http://ex/advisor> <http://ex/nobody> }`)
	if res.Boolean {
		t.Error("ASK should be false")
	}
}

func TestCount(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT (COUNT(*) AS ?c) WHERE { ?s <http://ex/advisor> ?p }`)
	if res.Rows[0][0] != rdf.NewInteger(3) {
		t.Errorf("COUNT(*) = %v", res.Rows[0][0])
	}
	res = mustRows(t, testStore(), `SELECT (COUNT(DISTINCT ?s) AS ?c) WHERE { ?s <http://ex/advisor> ?p }`)
	if res.Rows[0][0] != rdf.NewInteger(2) {
		t.Errorf("COUNT(DISTINCT ?s) = %v", res.Rows[0][0])
	}
}

func TestMinMaxSumAvg(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (SUM(?a) AS ?sum) (AVG(?a) AS ?avg) WHERE { ?s <http://ex/age> ?a }`)
	b := res.Binding(0)
	check := func(v string, want float64) {
		f, ok := b[v].Numeric()
		if !ok || f != want {
			t.Errorf("%s = %v, want %v", v, b[v], want)
		}
	}
	check("lo", 24)
	check("hi", 29)
	check("sum", 53)
	check("avg", 26.5)
}

func TestDistinctLimitOffsetOrder(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT DISTINCT ?c WHERE { ?p <http://ex/teacherOf> ?c } ORDER BY ?c`)
	if got := len(res.Rows); got != 2 {
		t.Fatalf("distinct rows = %d", got)
	}
	if res.Rows[0][0] != iri("db") || res.Rows[1][0] != iri("os") {
		t.Errorf("order wrong: %v", res.Rows)
	}
	res = mustRows(t, testStore(), `SELECT ?c WHERE { ?p <http://ex/teacherOf> ?c } ORDER BY DESC(?c) LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0] != iri("os") {
		t.Errorf("desc limit wrong: %v", res.Rows)
	}
	res = mustRows(t, testStore(), `SELECT ?c WHERE { ?p <http://ex/teacherOf> ?c } ORDER BY ?c OFFSET 2`)
	if len(res.Rows) != 1 {
		t.Errorf("offset wrong: %v", res.Rows)
	}
	// The ORDER BY key need not be projected: rows are sorted before
	// projection drops it.
	ages := store.NewFromTriples([]rdf.Triple{
		{S: iri("x3"), P: iri("age"), O: rdf.NewInteger(3)},
		{S: iri("x1"), P: iri("age"), O: rdf.NewInteger(1)},
		{S: iri("x2"), P: iri("age"), O: rdf.NewInteger(2)},
	})
	for order, want := range map[string]rdf.Term{"?a": iri("x1"), "DESC(?a)": iri("x3")} {
		res = mustRows(t, ages, `SELECT ?x WHERE { ?x <http://ex/age> ?a } ORDER BY `+order+` LIMIT 1`)
		if !reflect.DeepEqual(res.Vars, []string{"x"}) || len(res.Rows) != 1 || res.Rows[0][0] != want {
			t.Errorf("ORDER BY %s on a non-projected key: %v %v, want %v", order, res.Vars, res.Rows, want)
		}
	}
}

func TestBindExpression(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s ?n2 WHERE {
		?s <http://ex/age> ?a .
		BIND(?a + 1 AS ?n2)
	} ORDER BY ?n2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if f, _ := res.Binding(0)["n2"].Numeric(); f != 25 {
		t.Errorf("n2 = %v", res.Binding(0)["n2"])
	}
}

func TestBoundAndBang(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s WHERE {
		?s a <http://ex/Student> .
		OPTIONAL { ?s <http://ex/name> ?n }
		FILTER(!BOUND(?n))
	}`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2 (students have no names)", len(res.Rows))
	}
}

func TestEmptyResult(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s WHERE { ?s <http://ex/unknownPredicate> ?o }`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(res.Rows))
	}
}

func jsonBytes(t *testing.T, res *sparql.Results) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return b.Bytes()
}

func TestResultsJSONRoundTrip(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`)
	back, err := sparql.ParseResultsJSON(jsonBytes(t, res))
	if err != nil {
		t.Fatalf("ParseResultsJSON: %v", err)
	}
	res.Sort()
	back.Sort()
	if !reflect.DeepEqual(res, back) {
		t.Errorf("round trip mismatch:\n %+v\n %+v", res, back)
	}
}

func TestAskJSONRoundTrip(t *testing.T) {
	res := sparql.BoolResults(true)
	back, err := sparql.ParseResultsJSON(jsonBytes(t, res))
	if err != nil {
		t.Fatalf("ParseResultsJSON: %v", err)
	}
	if !back.IsBoolean || !back.Boolean {
		t.Errorf("back = %+v", back)
	}
}

func TestUnboundVarJSON(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?s ?n WHERE {
		?s a <http://ex/Student> . OPTIONAL { ?s <http://ex/name> ?n }
	}`)
	back, err := sparql.ParseResultsJSON(jsonBytes(t, res))
	if err != nil {
		t.Fatalf("ParseResultsJSON: %v", err)
	}
	for i := range back.Rows {
		if !back.Rows[i][back.VarIndex("n")].IsZero() {
			t.Error("unbound var should stay unbound through JSON")
		}
	}
}

// The evaluator must agree with a naive brute-force join on random BGPs.
func TestBGPAgainstBruteForce(t *testing.T) {
	st := testStore()
	queries := []string{
		`SELECT ?s ?p ?c WHERE { ?s <http://ex/advisor> ?p . ?p <http://ex/teacherOf> ?c }`,
		`SELECT ?a ?b WHERE { ?a <http://ex/takesCourse> ?x . ?b <http://ex/teacherOf> ?x }`,
		`SELECT ?x ?y ?z WHERE { ?x <http://ex/advisor> ?y . ?x <http://ex/age> ?z }`,
	}
	for _, q := range queries {
		res := mustRows(t, st, q)
		brute := bruteForce(t, st, q)
		res.Sort()
		brute.Sort()
		if !reflect.DeepEqual(res.Rows, brute.Rows) {
			t.Errorf("query %s:\n engine: %v\n brute:  %v", q, res.Rows, brute.Rows)
		}
	}
}

// bruteForce evaluates a pure-BGP SELECT by cross-producting all triples.
func bruteForce(t *testing.T, st *store.Store, q string) *sparql.Results {
	t.Helper()
	parsed, err := sparql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	pats := parsed.Where.TriplePatterns()
	all := st.Triples()
	rows := []map[string]rdf.Term{{}}
	for _, tp := range pats {
		var next []map[string]rdf.Term
		for _, b := range rows {
			for _, tri := range all {
				if nb := tryExtend(b, tp, tri); nb != nil {
					next = append(next, nb)
				}
			}
		}
		rows = next
	}
	vars := parsed.ProjectedVars()
	res := sparql.NewResults(vars)
	for _, b := range rows {
		row := make([]rdf.Term, len(vars))
		for i, v := range vars {
			row[i] = b[v]
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func tryExtend(b map[string]rdf.Term, tp sparql.TriplePattern, tri rdf.Triple) map[string]rdf.Term {
	nb := make(map[string]rdf.Term, len(b)+3)
	for k, v := range b {
		nb[k] = v
	}
	for _, pair := range [3]struct {
		pt  sparql.PatternTerm
		val rdf.Term
	}{{tp.S, tri.S}, {tp.P, tri.P}, {tp.O, tri.O}} {
		if pair.pt.IsVar() {
			if ex, ok := nb[pair.pt.Var]; ok {
				if ex != pair.val {
					return nil
				}
			} else {
				nb[pair.pt.Var] = pair.val
			}
		} else if pair.pt.Term != pair.val {
			return nil
		}
	}
	return nb
}

func TestVariablePredicate(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?p WHERE { <http://ex/kim> ?p ?o }`)
	got := sortedValues(res, "p")
	want := []string{rdf.RDFType, "http://ex/advisor", "http://ex/age", "http://ex/takesCourse"}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLargerJoinOrdering(t *testing.T) {
	// Build a store where a bad join order would be quadratic; just verify
	// correctness of the result on a chain query.
	st := store.New()
	for i := 0; i < 50; i++ {
		st.Add(rdf.Triple{S: iri(fmt.Sprintf("a%d", i)), P: iri("p1"), O: iri(fmt.Sprintf("b%d", i))})
		st.Add(rdf.Triple{S: iri(fmt.Sprintf("b%d", i)), P: iri("p2"), O: iri(fmt.Sprintf("c%d", i))})
		st.Add(rdf.Triple{S: iri(fmt.Sprintf("c%d", i)), P: iri("p3"), O: iri(fmt.Sprintf("d%d", i))})
	}
	res := mustRows(t, st, `SELECT ?a ?d WHERE { ?a <http://ex/p1> ?b . ?b <http://ex/p2> ?c . ?c <http://ex/p3> ?d }`)
	if len(res.Rows) != 50 {
		t.Errorf("rows = %d, want 50", len(res.Rows))
	}
}

func TestGroupByCount(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?p (COUNT(?s) AS ?n) WHERE {
		?s <http://ex/advisor> ?p
	} GROUP BY ?p ORDER BY ?p`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3 (ben, joy, tim)", len(res.Rows))
	}
	for i := range res.Rows {
		b := res.Binding(i)
		if b["n"] != rdf.NewInteger(1) {
			t.Errorf("group %v count = %v, want 1", b["p"], b["n"])
		}
	}
}

func TestGroupByMultipleAggregates(t *testing.T) {
	st := store.New()
	for i := 0; i < 10; i++ {
		dept := iri(fmt.Sprintf("dept%d", i%2))
		emp := iri(fmt.Sprintf("emp%d", i))
		st.Add(rdf.Triple{S: emp, P: iri("dept"), O: dept})
		st.Add(rdf.Triple{S: emp, P: iri("salary"), O: rdf.NewInteger(int64(1000 + i*100))})
	}
	res := mustRows(t, st, `SELECT ?d (COUNT(?e) AS ?n) (MAX(?sal) AS ?top) WHERE {
		?e <http://ex/dept> ?d .
		?e <http://ex/salary> ?sal .
	} GROUP BY ?d ORDER BY ?d`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	b0 := res.Binding(0)
	if b0["n"] != rdf.NewInteger(5) {
		t.Errorf("dept0 count = %v", b0["n"])
	}
	if f, _ := b0["top"].Numeric(); f != 1800 {
		t.Errorf("dept0 max = %v", b0["top"])
	}
}

func TestGroupByRejectsUngroupedVariable(t *testing.T) {
	_, err := New(testStore()).QueryString(`SELECT ?s (COUNT(?p) AS ?n) WHERE {
		?s <http://ex/advisor> ?p
	} GROUP BY ?p`)
	if err == nil {
		t.Error("projecting an ungrouped variable should error")
	}
}

func TestGroupByLimitOrder(t *testing.T) {
	res := mustRows(t, testStore(), `SELECT ?p (COUNT(?s) AS ?n) WHERE {
		?s <http://ex/advisor> ?p
	} GROUP BY ?p ORDER BY DESC(?p) LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Binding(0)["p"] != iri("tim") {
		t.Errorf("first group = %v, want tim (desc)", res.Binding(0)["p"])
	}
}

func TestGroupBySerializeRoundTrip(t *testing.T) {
	in := `SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s <http://ex/advisor> ?p . } GROUP BY ?p`
	q, err := sparql.Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "p" {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
	q2, err := sparql.Parse(q.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(q2.GroupBy) != 1 || q2.GroupBy[0] != "p" {
		t.Errorf("round-trip GroupBy = %v", q2.GroupBy)
	}
}
