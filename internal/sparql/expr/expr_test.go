package expr

import (
	"errors"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// TestExistsOutsideAGraph checks that EXISTS on a binding outside any
// graph is an expression error: a filter with one keeps no row either way
// round, where the empty graph it used to see made NOT EXISTS keep every
// row. A disjunct that holds still absorbs the error.
func TestExistsOutsideAGraph(t *testing.T) {
	b := map[string]rdf.Term{"s": rdf.NewIRI("http://ex/a")}
	for _, tc := range []struct {
		filter  string
		wantErr bool
		holds   bool
	}{
		{`EXISTS { ?s <http://ex/p> ?x }`, true, false},
		{`NOT EXISTS { ?s <http://ex/p> ?x }`, true, false},
		{`(BOUND(?s) || NOT EXISTS { ?s <http://ex/p> ?x })`, false, true},
	} {
		q := sparql.MustParse(`SELECT * WHERE { ?s ?p ?o FILTER ` + tc.filter + ` }`)
		x := q.Where.Elements[1].(sparql.Filter).Expr
		if _, err := EBV(x, varMap(b)); errors.Is(err, errExpr) != tc.wantErr {
			t.Errorf("FILTER %s: error %v, want an expression error: %v", tc.filter, err, tc.wantErr)
		}
		if got := Holds(x, b); got != tc.holds {
			t.Errorf("FILTER %s: Holds = %v, want %v", tc.filter, got, tc.holds)
		}
	}
}
