package qplan

import (
	"reflect"
	"testing"

	"lusail/internal/sparql"
)

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

// Every branch and OPTIONAL filter is split on its top-level &&; a || and
// a nested && stay whole.
func TestNormalizeSplitsConjunctions(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE {
		?a <http://p> ?b . FILTER(?a != ?b && (?b = 1 || ?b = 2 && ?a = 3) && BOUND(?a))
		OPTIONAL { ?b <http://q> ?c . FILTER(?c > 1 && ?c < ?b) } }`)
	branches, err := Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	var got, gotOpt []string
	for _, f := range branches[0].Filters {
		got = append(got, sparql.ExprString(f))
	}
	for _, f := range branches[0].Optionals[0].Filters {
		gotOpt = append(gotOpt, sparql.ExprString(f))
	}
	want := []string{"(?a != ?b)", `((?b = "1"^^<http://www.w3.org/2001/XMLSchema#integer>) || ((?b = "2"^^<http://www.w3.org/2001/XMLSchema#integer>) && (?a = "3"^^<http://www.w3.org/2001/XMLSchema#integer>)))`, "BOUND(?a)"}
	wantOpt := []string{`(?c > "1"^^<http://www.w3.org/2001/XMLSchema#integer>)`, "(?c < ?b)"}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotOpt, wantOpt) {
		t.Errorf("filters %q and %q, want %q and %q", got, gotOpt, want, wantOpt)
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
		`SELECT * WHERE { ?a <http://p> ?b . OPTIONAL { ?b <http://q> ?c FILTER(?c = ?a || NOT EXISTS { ?c <http://r> ?a }) } }`,
		`SELECT * WHERE { { ?a <http://p> ?b FILTER(-(EXISTS { ?b <http://q> ?a }) = 0) } UNION { ?a <http://q> ?b } }`,
	}
	for _, in := range bad {
		q := sparql.MustParse(in)
		if _, err := Normalize(q); err == nil {
			t.Errorf("Normalize(%q) should fail", in)
		}
	}
}
