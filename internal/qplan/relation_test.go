package qplan_test

import (
	"context"
	"reflect"
	"testing"

	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// The branches Normalize produces are combined by the relational kernel in
// internal/op. These tests pin the relation semantics a normalized plan
// relies on: union alignment, joins on shared variables, distinct binding
// tuples and filters, each on small hand-written relations.

func term(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

// dict holds the terms of every test relation; rows travel as its ids.
var dict = rdf.NewDict()

// tuple builds a row of IRIs; an empty string is an unbound cell.
func tuple(vals ...string) []rdf.Term {
	out := make([]rdf.Term, len(vals))
	for i, v := range vals {
		if v != "" {
			out[i] = term(v)
		}
	}
	return out
}

func relation(vars []string, rows ...[]rdf.Term) op.RowStream {
	return op.NewSlice(vars, op.InternRows(dict, rows))
}

func budget() op.Budget {
	return op.Budget{SpillBytes: op.DefaultSpillBytes}
}

func mustCollect(t *testing.T, s op.RowStream) *sparql.Results {
	t.Helper()
	res, err := op.Collect(s, dict)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func filterExpr(t *testing.T, text string) sparql.Expr {
	t.Helper()
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://p> ?x . FILTER(` + text + `) }`)
	for _, el := range q.Where.Elements {
		if f, ok := el.(sparql.Filter); ok {
			return f.Expr
		}
	}
	t.Fatalf("no filter in %q", text)
	return nil
}

func TestUnionRelationsAligns(t *testing.T) {
	a := relation([]string{"x", "y"}, tuple("1", "2"))
	b := relation([]string{"y", "z"}, tuple("3", "4"))
	u := mustCollect(t, op.Union(a, b))
	if !reflect.DeepEqual(u.Vars, []string{"x", "y", "z"}) {
		t.Fatalf("vars = %v", u.Vars)
	}
	if len(u.Rows) != 2 {
		t.Fatalf("rows = %d", len(u.Rows))
	}
	if !u.Rows[0][2].IsZero() || !u.Rows[1][0].IsZero() {
		t.Error("missing columns should be unbound")
	}
	if u.Rows[1][1] != term("3") || u.Rows[1][2] != term("4") {
		t.Errorf("row alignment wrong: %v", u.Rows[1])
	}
}

func TestHashJoinShared(t *testing.T) {
	a := relation([]string{"x", "y"}, tuple("a1", "k1"), tuple("a2", "k2"), tuple("a3", "k9"))
	b := relation([]string{"y", "z"}, tuple("k1", "b1"), tuple("k2", "b2"), tuple("k2", "b3"))
	j := mustCollect(t, op.HashJoin(context.Background(), a, b, budget()))
	if len(j.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(j.Rows))
	}
	if !reflect.DeepEqual(j.Vars, []string{"x", "y", "z"}) {
		t.Errorf("vars = %v", j.Vars)
	}
}

func TestHashJoinCrossProduct(t *testing.T) {
	a := relation([]string{"x"}, tuple("1"), tuple("2"))
	b := relation([]string{"y"}, tuple("3"), tuple("4"), tuple("5"))
	j := mustCollect(t, op.HashJoin(context.Background(), a, b, budget()))
	if len(j.Rows) != 6 {
		t.Errorf("cross product rows = %d, want 6", len(j.Rows))
	}
}

// A row whose join variable is unbound is compatible with every row and
// takes the other side's value, as in SPARQL.
func TestHashJoinUnboundKeyRowsJoin(t *testing.T) {
	a := relation([]string{"x", "y"}, tuple("a1", "k1"), tuple("a2", "")) // a2's y unbound
	b := relation([]string{"y", "z"}, tuple("k1", "b1"))
	j := mustCollect(t, op.HashJoin(context.Background(), a, b, budget()))
	want := [][]rdf.Term{tuple("a1", "k1", "b1"), tuple("a2", "k1", "b1")}
	if !reflect.DeepEqual(j.Rows, want) {
		t.Errorf("rows = %v, want %v", j.Rows, want)
	}
}

func TestProjectDistinct(t *testing.T) {
	vars := []string{"x", "y", "z"}
	rows := [][]rdf.Term{tuple("a", "k", "1"), tuple("a", "k", "2"), tuple("b", "k", "3"), tuple("c", "", "4")}
	got := op.TermRows(dict, op.DistinctTuples(op.InternRows(dict, rows), []int{0, 1}))
	want := [][]rdf.Term{tuple("a", "k"), tuple("b", "k"), tuple("c", "")} // (c,unbound) ships as (c,UNDEF)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("projected %v onto x,y: %v, want %v", vars, got, want)
	}
}

func TestApplyFilters(t *testing.T) {
	rows := func() op.RowStream {
		return relation([]string{"x"}, []rdf.Term{rdf.NewInteger(1)}, []rdf.Term{rdf.NewInteger(5)})
	}
	out := mustCollect(t, op.Filter(rows(), dict, []sparql.Expr{filterExpr(t, `?x > 3`)}))
	if len(out.Rows) != 1 {
		t.Errorf("filtered rows = %d", len(out.Rows))
	}
	// A filter referencing an absent variable errors → removes all rows.
	out = mustCollect(t, op.Filter(rows(), dict, []sparql.Expr{filterExpr(t, `?missing > 3`)}))
	if len(out.Rows) != 0 {
		t.Errorf("error filter kept %d rows", len(out.Rows))
	}
}

// The join keys on every shared variable, whatever its column on either
// side, and the build side's other variables follow the probe's.
func TestSharedVarsOrder(t *testing.T) {
	a := relation([]string{"x", "y", "z"}, tuple("1", "y1", "z1"), tuple("2", "y1", "z2"))
	b := relation([]string{"z", "y", "w"}, tuple("z1", "y1", "w1"), tuple("z2", "y2", "w2"))
	j := mustCollect(t, op.HashJoin(context.Background(), a, b, budget()))
	if !reflect.DeepEqual(j.Vars, []string{"x", "y", "z", "w"}) {
		t.Errorf("vars = %v", j.Vars)
	}
	if want := [][]rdf.Term{tuple("1", "y1", "z1", "w1")}; !reflect.DeepEqual(j.Rows, want) {
		t.Errorf("rows = %v, want %v (join on both y and z)", j.Rows, want)
	}
}
