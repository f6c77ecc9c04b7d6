package sparql

import (
	"testing"

	"lusail/internal/rdf"
)

func TestDistinctRows(t *testing.T) {
	a, b := []rdf.Term{rdf.NewIRI("a")}, []rdf.Term{rdf.NewIRI("b")}
	if got := DistinctRows([][]rdf.Term{a, a, b}); len(got) != 2 {
		t.Errorf("distinct rows = %d", len(got))
	}
	// Kind matters: an IRI and a literal with the same text are distinct.
	rows := [][]rdf.Term{{rdf.NewIRI("x")}, {rdf.NewLiteral("x")}}
	if got := DistinctRows(rows); len(got) != 2 {
		t.Errorf("IRI vs literal collapsed: %d", len(got))
	}
}
