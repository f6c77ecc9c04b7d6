package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"lusail/internal/qplan"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

func TestJoinEntitiesRoles(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE {
		?s <http://p1> ?x .
		?x <http://p2> ?o .
		?s <http://p3> ?o .
		?s ?pv ?z .
	}`)
	vars := joinEntities(q.Where.TriplePatterns())
	byName := map[string]varRole{}
	for _, v := range vars {
		byName[v.name] = v
	}
	s := byName["s"]
	if !reflect.DeepEqual(s.subjIdx, []int{0, 2, 3}) {
		t.Errorf("s.subjIdx = %v", s.subjIdx)
	}
	x := byName["x"]
	if !reflect.DeepEqual(x.objIdx, []int{0}) || !reflect.DeepEqual(x.subjIdx, []int{1}) {
		t.Errorf("x roles = %+v", x)
	}
	o := byName["o"]
	if !reflect.DeepEqual(o.objIdx, []int{1, 2}) {
		t.Errorf("o.objIdx = %v", o.objIdx)
	}
	if _, ok := byName["z"]; ok {
		t.Error("z appears once and is not a join entity")
	}
	if _, ok := byName["pv"]; ok {
		t.Error("pv appears once and is not a join entity")
	}
}

func TestMakeCheckShape(t *testing.T) {
	tpOuter := sparql.TriplePattern{S: sparql.Var("s"), P: sparql.IRI("http://pi"), O: sparql.Var("v")}
	tpInner := sparql.TriplePattern{S: sparql.Var("v"), P: sparql.IRI("http://pj"), O: sparql.Var("c")}
	typeOf := map[string]sparql.TriplePattern{
		"v": {S: sparql.Var("v"), P: sparql.IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), O: sparql.IRI("http://T")},
	}
	cq := makeCheck("v", tpOuter, tpInner, typeOf)
	cq.formulate()
	text := cq.text("v")
	// The check query must parse and have the Figure 5 structure.
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("check query does not parse: %v\n%s", err, text)
	}
	if q.Limit != 1 {
		t.Errorf("check query LIMIT = %d, want 1", q.Limit)
	}
	if got := q.ProjectedVars(); !reflect.DeepEqual(got, []string{"v"}) {
		t.Errorf("check query projects %v", got)
	}
	// v is the *object* of the outer pattern here, so the rdf:type
	// narrowing must NOT be applied (it could hide remote witnesses).
	if strings.Contains(text, "rdf-syntax-ns#type") {
		t.Errorf("type narrowing applied to object-position outer:\n%s", text)
	}
	hasNotExists := false
	for _, el := range q.Where.Elements {
		if f, ok := el.(sparql.Filter); ok {
			if ex, ok := f.Expr.(sparql.ExprExists); ok && ex.Not {
				hasNotExists = true
				if len(ex.Group.Elements) != 1 {
					t.Error("NOT EXISTS should wrap exactly the sub-select")
				}
			}
		}
	}
	if !hasNotExists {
		t.Errorf("check query lacks NOT EXISTS:\n%s", text)
	}
}

func TestMakeCheckTypeNarrowingForSubjectOuter(t *testing.T) {
	tpOuter := sparql.TriplePattern{S: sparql.Var("v"), P: sparql.IRI("http://pi"), O: sparql.Var("a")}
	tpInner := sparql.TriplePattern{S: sparql.Var("v"), P: sparql.IRI("http://pj"), O: sparql.Var("b")}
	typeOf := map[string]sparql.TriplePattern{
		"v": {S: sparql.Var("v"), P: sparql.IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), O: sparql.IRI("http://T")},
	}
	cq := makeCheck("v", tpOuter, tpInner, typeOf)
	cq.formulate()
	if text := cq.text("v"); !strings.Contains(text, "rdf-syntax-ns#type") {
		t.Errorf("type narrowing missing for subject-position outer:\n%s", text)
	}
}

func TestRenameExceptAvoidsCapture(t *testing.T) {
	tp := sparql.TriplePattern{S: sparql.Var("v"), P: sparql.Var("p"), O: sparql.Var("c")}
	got := renameExcept(tp, "v")
	if got.S.Var != "v" {
		t.Errorf("kept variable renamed: %v", got.S)
	}
	if got.P.Var == "p" || got.O.Var == "c" {
		t.Errorf("other variables not renamed: %v", got)
	}
}

// Probe answers and pattern facts share one cache and one clear; a
// pattern fact from a failed probe stays unknown.
func TestCheckCache(t *testing.T) {
	c := newFacts()
	k := answerKey{"check|k", "ep1"}
	if _, ok := c.answer(k); ok {
		t.Error("empty cache hit")
	}
	c.putAnswer(k, 1)
	if n, ok := c.answer(k); !ok || n != 1 {
		t.Error("cache miss after put")
	}
	if _, ok := c.answer(answerKey{"check|k", "ep2"}); ok {
		t.Error("an answer at one endpoint answered another")
	}
	if fs, hit := c.pattern("p", 2); hit || len(fs) != 2 {
		t.Errorf("empty pattern cache: hit %v, %d facts; want a miss with 2 unknown facts", hit, len(fs))
	}
	// The second endpoint's probe failed: relevant for that query, unknown.
	c.putPattern("p", []fact{{known: true, relevant: true}, {relevant: true}})
	if fs, hit := c.pattern("p", 2); hit || !fs[0].known || fs[1].known {
		t.Errorf("after a failed probe: hit %v, facts %+v; want a miss with only the answered endpoint known", hit, fs)
	}
	c.putPattern("p", []fact{{known: true, relevant: true}, {known: true}})
	if _, hit := c.pattern("p", 2); !hit {
		t.Error("pattern miss after every endpoint answered")
	}
	c.clear()
	if len(c.answers) != 0 || len(c.patterns) != 0 {
		t.Error("clear failed")
	}
}

func TestTypeConstraints(t *testing.T) {
	q := sparql.MustParse(`
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT * WHERE {
			?a rdf:type <http://T1> .
			?a rdf:type <http://T2> .
			?b rdf:type ?cls .
			?a <http://p> ?b .
		}`)
	tc := typeConstraints(q.Where.TriplePatterns())
	if _, ok := tc["a"]; !ok {
		t.Error("missing type constraint for ?a")
	}
	if tc["a"].O.Term.Value != "http://T1" {
		t.Errorf("should keep the first constraint, got %v", tc["a"].O)
	}
	if _, ok := tc["b"]; ok {
		t.Error("?b's type is a variable and must not constrain checks")
	}
}

func TestGJVDifferentSourcesShortCircuit(t *testing.T) {
	// Patterns with different source sets force a GJV without any check
	// queries (Algorithm 1 lines 8-11).
	eps, _ := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	patterns := []sparql.TriplePattern{
		{S: sparql.Var("x"), P: sparql.IRI("http://p1"), O: sparql.Var("y")},
		{S: sparql.Var("y"), P: sparql.IRI("http://p2"), O: sparql.Var("z")},
	}
	sources := [][]string{{"ep1"}, {"ep2"}}
	var ps probes
	var prof Profile
	res, err := e.detectGJVs(context.Background(), []branchFacts{{sources: sources, stats: &queryStats{},
		lade: ps.analyze(&qplan.Branch{Patterns: patterns}, 0)}}, &prof)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].IsGlobal("y") {
		t.Error("y should be global (different sources)")
	}
	if prof.ChecksIssued != 0 {
		t.Errorf("no checks should be issued, got %d", prof.ChecksIssued)
	}
}

// detectBranch runs GJV detection for one branch over the given sources,
// as planning does once the first round has answered.
func (e *Engine) detectBranch(ctx context.Context, br *qplan.Branch, sources [][]string, stats *queryStats) (*GJVResult, error) {
	var ps probes
	gjvs, err := e.detectGJVs(ctx, []branchFacts{{sources: sources, stats: stats, lade: ps.analyze(br, 0)}}, &Profile{})
	if err != nil {
		return nil, err
	}
	return gjvs[0], nil
}

func TestGJVPredicateVariableConservative(t *testing.T) {
	eps, _ := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	patterns := []sparql.TriplePattern{
		{S: sparql.Var("x"), P: sparql.Var("p"), O: sparql.Var("y")},
		{S: sparql.Var("z"), P: sparql.Var("p"), O: sparql.Var("w")},
	}
	sources := [][]string{{"ep1", "ep2"}, {"ep1", "ep2"}}
	res, err := e.detectBranch(context.Background(), &qplan.Branch{Patterns: patterns}, sources, &queryStats{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsGlobal("p") {
		t.Error("predicate-position join variable should be conservatively global")
	}
}

func TestDecomposeSingleGJVSplitsPatterns(t *testing.T) {
	eps, _ := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	q := sparql.MustParse(`
		PREFIX ub: <http://lubm.org/ub#>
		SELECT * WHERE {
			?p ub:PhDDegreeFrom ?u .
			?u ub:address ?a .
		}`)
	branches, err := qplan.Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	br := branches[0]
	ctx := context.Background()
	facts, err := e.selectSources(ctx, branches, &Profile{})
	if err != nil {
		t.Fatal(err)
	}
	sources, stats := facts[0].sources, facts[0].stats
	gjv, err := e.detectBranch(ctx, br, sources, stats)
	if err != nil {
		t.Fatal(err)
	}
	if !gjv.IsGlobal("u") {
		t.Fatalf("u should be global, got %v", gjv.GlobalVars())
	}
	sqs := e.decompose(br, sources, gjv, stats)
	if len(sqs) != 2 {
		t.Fatalf("subqueries = %d, want 2: %v", len(sqs), sqs)
	}
	for _, sq := range sqs {
		if len(sq.Patterns) != 1 {
			t.Errorf("subquery %s should hold one pattern", sq)
		}
	}
}

func TestSubqueryQueryRendering(t *testing.T) {
	sq := &Subquery{
		Patterns: []sparql.TriplePattern{
			{S: sparql.Var("s"), P: sparql.IRI("http://p"), O: sparql.Var("o")},
		},
		Sources: []string{"ep1"},
	}
	q := sq.Query()
	if q.Distinct {
		t.Error("subquery requests DISTINCT; the branch tail's Dedup is the one statement of set semantics")
	}
	text := q.String()
	if strings.Contains(text, "DISTINCT") {
		t.Errorf("subquery text requests DISTINCT:\n%s", text)
	}
	if _, err := sparql.Parse(text); err != nil {
		t.Errorf("subquery text does not parse: %v\n%s", err, text)
	}
	// With a VALUES block attached.
	sq.Values = []sparql.InlineData{{Vars: []string{"s"}, Rows: [][]rdf.Term{{rdf.NewIRI("http://a")}}}}
	text = sq.Query().String()
	if !strings.Contains(text, "VALUES") {
		t.Errorf("bound query lacks VALUES:\n%s", text)
	}
	if _, err := sparql.Parse(text); err != nil {
		t.Errorf("bound subquery text does not parse: %v\n%s", err, text)
	}
}
