package core

import (
	"reflect"
	"testing"

	"lusail/internal/sparql"
)

func TestMergeSubqueriesCombinesCompatible(t *testing.T) {
	gjv := &GJVResult{Global: map[string]bool{"g": true}}
	mk := func(src string, tps ...sparql.TriplePattern) *Subquery {
		return &Subquery{Patterns: tps, Sources: []string{src}}
	}
	tpAB := sparql.TriplePattern{S: sparql.Var("a"), P: sparql.IRI("http://p1"), O: sparql.Var("b")}
	tpBC := sparql.TriplePattern{S: sparql.Var("b"), P: sparql.IRI("http://p2"), O: sparql.Var("c")}
	tpGX := sparql.TriplePattern{S: sparql.Var("g"), P: sparql.IRI("http://p3"), O: sparql.Var("x")}
	tpGY := sparql.TriplePattern{S: sparql.Var("g"), P: sparql.IRI("http://p4"), O: sparql.Var("y")}

	// Same sources, shared local var, no GJV conflict: must merge.
	out := mergeSubqueries([]*Subquery{mk("ep1", tpAB), mk("ep1", tpBC)}, gjv)
	if len(out) != 1 {
		t.Errorf("compatible subqueries not merged: %d", len(out))
	}
	// Shared variable is global: must NOT merge.
	out = mergeSubqueries([]*Subquery{mk("ep1", tpGX), mk("ep1", tpGY)}, gjv)
	if len(out) != 2 {
		t.Errorf("GJV-conflicting subqueries merged: %d", len(out))
	}
	// Different sources: must NOT merge.
	out = mergeSubqueries([]*Subquery{mk("ep1", tpAB), mk("ep2", tpBC)}, gjv)
	if len(out) != 2 {
		t.Errorf("different-source subqueries merged: %d", len(out))
	}
	// No shared variable: must NOT merge.
	tpXY := sparql.TriplePattern{S: sparql.Var("x9"), P: sparql.IRI("http://p5"), O: sparql.Var("y9")}
	out = mergeSubqueries([]*Subquery{mk("ep1", tpAB), mk("ep1", tpXY)}, gjv)
	if len(out) != 2 {
		t.Errorf("var-disjoint subqueries merged: %d", len(out))
	}
}

func TestSubqueryHelpers(t *testing.T) {
	sq := &Subquery{Patterns: []sparql.TriplePattern{
		{S: sparql.Var("a"), P: sparql.IRI("http://p"), O: sparql.Var("b")},
		{S: sparql.Var("b"), P: sparql.IRI("http://q"), O: sparql.Var("c")},
	}}
	if !reflect.DeepEqual(sq.Vars(), []string{"a", "b", "c"}) {
		t.Errorf("Vars = %v", sq.Vars())
	}
	if !sq.HasVar("b") || sq.HasVar("zz") {
		t.Error("HasVar wrong")
	}
	other := &Subquery{Patterns: []sparql.TriplePattern{
		{S: sparql.Var("c"), P: sparql.IRI("http://r"), O: sparql.Var("d")},
	}}
	if !reflect.DeepEqual(sq.SharedVars(other), []string{"c"}) {
		t.Errorf("SharedVars = %v", sq.SharedVars(other))
	}
}
