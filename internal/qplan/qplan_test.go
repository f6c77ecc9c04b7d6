package qplan

import (
	"reflect"
	"sort"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func rel(vars []string, rows ...[]rdf.Term) *sparql.Results {
	r := sparql.NewResults(vars)
	r.Rows = rows
	return r
}

func row(vals ...string) []rdf.Term {
	out := make([]rdf.Term, len(vals))
	for i, v := range vals {
		if v != "" {
			out[i] = iri(v)
		}
	}
	return out
}

func TestNormalizeConjunctive(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c . FILTER(?a != ?c) }`)
	branches, err := Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 1 {
		t.Fatalf("branches = %d", len(branches))
	}
	br := branches[0]
	if len(br.Patterns) != 2 || len(br.Filters) != 1 {
		t.Errorf("patterns=%d filters=%d", len(br.Patterns), len(br.Filters))
	}
}

func TestNormalizeUnionDistribution(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE {
		?a <http://p> ?b .
		{ ?b <http://q> ?c } UNION { ?b <http://r> ?c }
		{ ?c <http://s> ?d } UNION { ?c <http://t> ?d }
	}`)
	branches, err := Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 4 {
		t.Fatalf("branches = %d, want 4 (2x2 distribution)", len(branches))
	}
	for _, br := range branches {
		if len(br.Patterns) != 3 {
			t.Errorf("branch patterns = %d, want 3", len(br.Patterns))
		}
	}
}

func TestNormalizeOptionalAndValues(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE {
		?a <http://p> ?b .
		OPTIONAL { ?b <http://q> ?c . FILTER(?c != <http://x>) }
		VALUES ?a { <http://v1> }
	}`)
	branches, err := Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	br := branches[0]
	if len(br.Optionals) != 1 || len(br.Optionals[0].Patterns) != 1 || len(br.Optionals[0].Filters) != 1 {
		t.Errorf("optionals = %+v", br.Optionals)
	}
	if len(br.Values) != 1 {
		t.Errorf("values = %d", len(br.Values))
	}
	vars := br.Vars()
	if !reflect.DeepEqual(vars, []string{"a", "b", "c"}) {
		t.Errorf("vars = %v", vars)
	}
}

func TestNormalizeRejectsEmptyAndUnsupported(t *testing.T) {
	bad := []string{
		`SELECT * WHERE { FILTER(1 = 1) }`,                                                 // no patterns
		`SELECT * WHERE { ?a <http://p> ?b . BIND(?a AS ?x) }`,                             // BIND
		`SELECT * WHERE { { SELECT ?a WHERE { ?a <http://p> ?b } } }`,                      // nested select
		`SELECT * WHERE { ?a <http://p> ?b . OPTIONAL { OPTIONAL { ?b <http://q> ?c } } }`, // nested optional
	}
	for _, in := range bad {
		q := sparql.MustParse(in)
		if _, err := Normalize(q); err == nil {
			t.Errorf("Normalize(%q) should fail", in)
		}
	}
}

func TestUnionRelationsAligns(t *testing.T) {
	a := rel([]string{"x", "y"}, row("1", "2"))
	b := rel([]string{"y", "z"}, row("3", "4"))
	u := UnionRelations(a, b)
	if !reflect.DeepEqual(u.Vars, []string{"x", "y", "z"}) {
		t.Fatalf("vars = %v", u.Vars)
	}
	if len(u.Rows) != 2 {
		t.Fatalf("rows = %d", len(u.Rows))
	}
	if u.Rows[0][2].IsZero() == false || u.Rows[1][0].IsZero() == false {
		t.Error("missing columns should be unbound")
	}
	if u.Rows[1][1] != iri("3") || u.Rows[1][2] != iri("4") {
		t.Errorf("row alignment wrong: %v", u.Rows[1])
	}
}

func TestUnionRelationsNil(t *testing.T) {
	a := rel([]string{"x"}, row("1"))
	if UnionRelations(nil, a) != a || UnionRelations(a, nil) != a {
		t.Error("nil union should return the other side")
	}
}

func TestHashJoinShared(t *testing.T) {
	a := rel([]string{"x", "y"}, row("a1", "k1"), row("a2", "k2"), row("a3", "k9"))
	b := rel([]string{"y", "z"}, row("k1", "b1"), row("k2", "b2"), row("k2", "b3"))
	j := HashJoin(a, b)
	if len(j.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(j.Rows))
	}
	if !reflect.DeepEqual(j.Vars, []string{"x", "y", "z"}) {
		t.Errorf("vars = %v", j.Vars)
	}
}

func TestHashJoinCrossProduct(t *testing.T) {
	a := rel([]string{"x"}, row("1"), row("2"))
	b := rel([]string{"y"}, row("3"), row("4"), row("5"))
	j := HashJoin(a, b)
	if len(j.Rows) != 6 {
		t.Errorf("cross product rows = %d, want 6", len(j.Rows))
	}
}

func TestHashJoinUnboundKeyRowsDropped(t *testing.T) {
	a := rel([]string{"x", "y"}, row("a1", "k1"), row("a2", "")) // a2's y unbound
	b := rel([]string{"y", "z"}, row("k1", "b1"))
	j := HashJoin(a, b)
	if len(j.Rows) != 1 {
		t.Errorf("rows = %d, want 1 (unbound key does not inner-join)", len(j.Rows))
	}
}

func TestLeftJoinKeepsUnmatched(t *testing.T) {
	a := rel([]string{"x", "y"}, row("a1", "k1"), row("a2", "k9"))
	b := rel([]string{"y", "z"}, row("k1", "b1"))
	j := LeftJoin(a, b)
	if len(j.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(j.Rows))
	}
	matched, unmatched := 0, 0
	zIdx := j.VarIndex("z")
	for _, r := range j.Rows {
		if r[zIdx].IsZero() {
			unmatched++
		} else {
			matched++
		}
	}
	if matched != 1 || unmatched != 1 {
		t.Errorf("matched=%d unmatched=%d", matched, unmatched)
	}
}

func TestProjectDistinct(t *testing.T) {
	r := rel([]string{"x", "y", "z"},
		row("a", "k", "1"), row("a", "k", "2"), row("b", "k", "3"), row("c", "", "4"))
	got := ProjectDistinct(r, []string{"x", "y"})
	if len(got) != 2 { // (a,k), (b,k); (c,unbound) skipped
		t.Errorf("projected rows = %d: %v", len(got), got)
	}
}

func TestApplyFilters(t *testing.T) {
	r := rel([]string{"x"}, []rdf.Term{rdf.NewInteger(1)}, []rdf.Term{rdf.NewInteger(5)})
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://p> ?x . FILTER(?x > 3) }`)
	var f sparql.Expr
	for _, el := range q.Where.Elements {
		if ff, ok := el.(sparql.Filter); ok {
			f = ff.Expr
		}
	}
	out := ApplyFilters(r, []sparql.Expr{f})
	if len(out.Rows) != 1 {
		t.Errorf("filtered rows = %d", len(out.Rows))
	}
	// A filter referencing an absent variable errors → removes all rows.
	q2 := sparql.MustParse(`SELECT * WHERE { ?s <http://p> ?x . FILTER(?missing > 3) }`)
	var f2 sparql.Expr
	for _, el := range q2.Where.Elements {
		if ff, ok := el.(sparql.Filter); ok {
			f2 = ff.Expr
		}
	}
	out = ApplyFilters(r, []sparql.Expr{f2})
	if len(out.Rows) != 0 {
		t.Errorf("error filter kept %d rows", len(out.Rows))
	}
}

func TestFinalizeProjectionOrderLimit(t *testing.T) {
	q := sparql.MustParse(`SELECT ?y ?x WHERE { ?x <http://p> ?y } ORDER BY DESC(?x) LIMIT 2 OFFSET 1`)
	r := rel([]string{"x", "y"}, row("a", "1"), row("b", "2"), row("c", "3"), row("d", "4"))
	out, err := Finalize(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Vars, []string{"y", "x"}) {
		t.Errorf("vars = %v", out.Vars)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("rows = %d", len(out.Rows))
	}
	// DESC(?x): d,c,b,a → offset 1 → c,b
	if out.Rows[0][1] != iri("c") || out.Rows[1][1] != iri("b") {
		t.Errorf("order/offset wrong: %v", out.Rows)
	}
}

func TestFinalizeAsk(t *testing.T) {
	q := sparql.MustParse(`ASK { ?x <http://p> ?y }`)
	out, err := Finalize(q, rel([]string{"x"}, row("a")))
	if err != nil || !out.IsBoolean || !out.Boolean {
		t.Errorf("ASK finalize = %+v, %v", out, err)
	}
	out, err = Finalize(q, rel([]string{"x"}))
	if err != nil || out.Boolean {
		t.Errorf("empty ASK finalize = %+v, %v", out, err)
	}
}

func TestFinalizeAggregates(t *testing.T) {
	q := sparql.MustParse(`SELECT (COUNT(DISTINCT ?x) AS ?c) (MAX(?n) AS ?m) WHERE { ?x <http://p> ?n }`)
	r := sparql.NewResults([]string{"x", "n"})
	r.Rows = [][]rdf.Term{
		{iri("a"), rdf.NewInteger(3)},
		{iri("a"), rdf.NewInteger(7)},
		{iri("b"), rdf.NewInteger(5)},
	}
	out, err := Finalize(q, r)
	if err != nil {
		t.Fatal(err)
	}
	b := out.Binding(0)
	if b["c"] != rdf.NewInteger(2) {
		t.Errorf("count = %v", b["c"])
	}
	if f, _ := b["m"].Numeric(); f != 7 {
		t.Errorf("max = %v", b["m"])
	}
}

func TestFinalizeDistinct(t *testing.T) {
	q := sparql.MustParse(`SELECT DISTINCT ?x WHERE { ?x <http://p> ?y }`)
	r := rel([]string{"x", "y"}, row("a", "1"), row("a", "2"))
	out, err := Finalize(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Errorf("distinct rows = %d", len(out.Rows))
	}
}

func TestSharedVarsOrder(t *testing.T) {
	a := rel([]string{"x", "y", "z"})
	b := rel([]string{"z", "y", "w"})
	got := SharedVars(a, b)
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"y", "z"}) {
		t.Errorf("shared = %v", got)
	}
}
