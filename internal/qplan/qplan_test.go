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
