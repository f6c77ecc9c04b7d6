package qplan

import (
	"reflect"
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
