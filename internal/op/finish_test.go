package op

import (
	"reflect"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

func finishIRI(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func finishRow(vals ...string) []rdf.Term {
	out := make([]rdf.Term, len(vals))
	for i, v := range vals {
		if v != "" {
			out[i] = finishIRI(v)
		}
	}
	return out
}

// answer runs rows over vars through Finish and Answer for the query.
func answer(t *testing.T, query string, vars []string, rows ...[]rdf.Term) *sparql.Results {
	t.Helper()
	q := sparql.MustParse(query)
	dict := rdf.NewDict()
	res, err := Answer(q, dict, Finish(q, dict, NewSlice(vars, InternRows(dict, rows))))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFinishProjectionOrderLimit(t *testing.T) {
	out := answer(t, `SELECT ?y ?x WHERE { ?x <http://p> ?y } ORDER BY DESC(?x) LIMIT 2 OFFSET 1`,
		[]string{"x", "y"}, finishRow("a", "1"), finishRow("b", "2"), finishRow("c", "3"), finishRow("d", "4"))
	if !reflect.DeepEqual(out.Vars, []string{"y", "x"}) {
		t.Errorf("vars = %v", out.Vars)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("rows = %d", len(out.Rows))
	}
	// DESC(?x): d,c,b,a → offset 1 → c,b
	if out.Rows[0][1] != finishIRI("c") || out.Rows[1][1] != finishIRI("b") {
		t.Errorf("order/offset wrong: %v", out.Rows)
	}
}

func TestFinishAsk(t *testing.T) {
	const q = `ASK { ?x <http://p> ?y }`
	if out := answer(t, q, []string{"x"}, finishRow("a"), finishRow("b")); !out.IsBoolean || !out.Boolean {
		t.Errorf("ASK = %+v", out)
	}
	if out := answer(t, q, []string{"x"}); !out.IsBoolean || out.Boolean {
		t.Errorf("empty ASK = %+v", out)
	}
}

func TestFinishAggregates(t *testing.T) {
	out := answer(t, `SELECT (COUNT(DISTINCT ?x) AS ?c) (MAX(?n) AS ?m) WHERE { ?x <http://p> ?n }`,
		[]string{"x", "n"},
		[]rdf.Term{finishIRI("a"), rdf.NewInteger(3)},
		[]rdf.Term{finishIRI("a"), rdf.NewInteger(7)},
		[]rdf.Term{finishIRI("b"), rdf.NewInteger(5)})
	b := out.Binding(0)
	if b["c"] != rdf.NewInteger(2) {
		t.Errorf("count = %v", b["c"])
	}
	if f, _ := b["m"].Numeric(); f != 7 {
		t.Errorf("max = %v", b["m"])
	}
}

func TestFinishDistinct(t *testing.T) {
	out := answer(t, `SELECT DISTINCT ?x WHERE { ?x <http://p> ?y }`,
		[]string{"x", "y"}, finishRow("a", "1"), finishRow("a", "2"))
	if len(out.Rows) != 1 {
		t.Errorf("distinct rows = %d", len(out.Rows))
	}
}
