package core

import (
	"context"
	"reflect"
	"testing"

	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// filterFederation holds numbers at ep0, linked to entities at ep1 whose
// names spell ep0's subjects as strings.
func filterFederation(t *testing.T, opts Options) (*Engine, *store.Store) {
	ep0 := []rdf.Triple{
		t3(u("a"), u("lo"), rdf.NewInteger(1)),
		t3(u("b"), u("lo"), rdf.NewInteger(5)),
		t3(u("a"), u("link"), u("c")),
		t3(u("b"), u("link"), u("d")),
	}
	ep1 := []rdf.Triple{
		t3(u("c"), u("hi"), rdf.NewInteger(3)),
		t3(u("d"), u("hi"), rdf.NewInteger(4)),
		t3(u("c"), u("name"), rdf.NewLiteral(ub+"a")),
		t3(u("d"), u("name"), rdf.NewLiteral(ub+"x")),
	}
	e := newEngine(t, []*client.InProcess{
		client.NewInProcess("ep0", store.NewFromTriples(ep0)),
		client.NewInProcess("ep1", store.NewFromTriples(ep1)),
	}, opts)
	return e, store.NewFromTriples(append(append([]rdf.Triple(nil), ep0...), ep1...))
}

func exprStrings(xs []sparql.Expr) []string {
	var out []string
	for _, x := range xs {
		out = append(out, sparql.ExprString(x))
	}
	return out
}

// Each conjunct of a FILTER goes to the subquery that binds its
// variables; only the conjunct that spans subqueries is left for the
// pipeline to evaluate.
func TestFilterConjunctsPushedApart(t *testing.T) {
	e, oracle := filterFederation(t, DefaultOptions())
	q := `PREFIX ub: <http://lubm.org/ub#>
	      SELECT ?x ?l ?y ?h WHERE { ?x ub:lo ?l . ?x ub:link ?y . ?y ub:hi ?h
	        FILTER(?l > 0 && ?h > 1 && ?l < ?h) }`
	p, err := e.PlanString(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	pb := p.branches[0]
	pushed := map[string][]string{}
	for _, sq := range pb.sqs {
		pushed[sq.String()] = exprStrings(sq.Filters)
	}
	want := map[string][]string{
		"{?x <http://lubm.org/ub#link> ?y . ?x <http://lubm.org/ub#lo> ?l}@[ep0]": {`(?l > "0"^^<http://www.w3.org/2001/XMLSchema#integer>)`},
		"{?y <http://lubm.org/ub#hi> ?h}@[ep1]":                                   {`(?h > "1"^^<http://www.w3.org/2001/XMLSchema#integer>)`},
	}
	if !reflect.DeepEqual(pushed, want) {
		t.Errorf("pushed filters %v, want %v", pushed, want)
	}
	if got := exprStrings(pb.residual); !reflect.DeepEqual(got, []string{"(?l < ?h)"}) {
		t.Errorf("residual filters %v, want only the spanning conjunct", got)
	}
	got, _ := runLusail(t, e, q)
	assertSameResults(t, got, oracleResults(t, oracle, q))
	if len(got.Rows) != 1 {
		t.Errorf("%d rows, want 1", len(got.Rows))
	}
}

// Two components linked only by STR(?x) = STR(?n) hash-join keyed on that
// filter, and EXPLAIN names it as the join's key.
func TestKeyedJoinOnStrEquality(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	e, oracle := filterFederation(t, opts)
	q := `PREFIX ub: <http://lubm.org/ub#>
	      SELECT ?x ?l ?y WHERE { ?x ub:lo ?l . ?y ub:name ?n FILTER(STR(?x) = STR(?n)) }`
	got, prof := runLusail(t, e, q)
	assertSameResults(t, got, oracleResults(t, oracle, q))
	if len(got.Rows) != 1 {
		t.Errorf("%d rows, want 1", len(got.Rows))
	}
	var on []any
	for _, sp := range obs.FindAll(prof.Trace, "hash-join") {
		a, _ := sp.Attr("on")
		on = append(on, a)
	}
	if want := []any{"(STR(?x) = STR(?n))"}; !reflect.DeepEqual(on, want) {
		t.Errorf("hash joins on %v, want %v", on, want)
	}
}
