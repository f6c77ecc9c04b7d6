package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lusail/internal/client"
	"lusail/internal/eval"
	"lusail/internal/federation"
	"lusail/internal/qplan"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

const ub = "http://lubm.org/ub#"

func u(s string) rdf.Term { return rdf.NewIRI(ub + s) }

func t3(s, p, o rdf.Term) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }

// paperFederation builds the running example of the paper (Figures 1, 2,
// 4): two university endpoints with the same schema, where Tim's PhD
// university lives at the other endpoint.
//
// withAnn adds the professor Ann (EP1) who advises a student but teaches no
// course — the paper's "extraneous computation" example that makes ?P a
// false-positive GJV.
func paperFederation(withAnn bool) (eps []*client.InProcess, oracle *store.Store) {
	typ := rdf.NewIRI(rdf.RDFType)
	advisor, teacherOf := u("advisor"), u("teacherOf")
	takes, phdFrom, addr := u("takesCourse"), u("PhDDegreeFrom"), u("address")
	gradStudent, assocProf, gradCourse := u("GraduateStudent"), u("AssociateProfessor"), u("GraduateCourse")

	// EP1: university A. Self-contained staff plus the address of univA,
	// which EP2's Tim and Ben reference remotely.
	univA := u("univA")
	ep1 := []rdf.Triple{
		t3(univA, addr, rdf.NewLiteral("AddrA")),
		t3(u("zoe"), typ, gradStudent),
		t3(u("zoe"), advisor, u("max")),
		t3(u("zoe"), takes, u("courseX")),
		t3(u("max"), typ, assocProf),
		t3(u("max"), teacherOf, u("courseX")),
		t3(u("max"), phdFrom, univA),
		t3(u("courseX"), typ, gradCourse),
	}
	if withAnn {
		ep1 = append(ep1,
			t3(u("sam"), typ, gradStudent),
			t3(u("sam"), advisor, u("ann")),
			t3(u("sam"), takes, u("courseX")),
			t3(u("ann"), typ, assocProf),
			t3(u("ann"), phdFrom, univA),
			// Ann teaches no course: ?P looks global although no remote
			// data is needed for her.
		)
	}

	// EP2: university B. Tim and Ben got their PhDs from univA (remote).
	univB := u("univB")
	ep2 := []rdf.Triple{
		t3(univB, addr, rdf.NewLiteral("AddrB")),
		t3(u("kim"), typ, gradStudent),
		t3(u("lee"), typ, gradStudent),
		t3(u("kim"), advisor, u("joy")),
		t3(u("kim"), advisor, u("tim")),
		t3(u("lee"), advisor, u("ben")),
		t3(u("kim"), takes, u("courseDB")),
		t3(u("lee"), takes, u("courseOS")),
		t3(u("joy"), typ, assocProf),
		t3(u("tim"), typ, assocProf),
		t3(u("ben"), typ, assocProf),
		t3(u("joy"), teacherOf, u("courseDB")),
		t3(u("tim"), teacherOf, u("courseDB")),
		t3(u("ben"), teacherOf, u("courseOS")),
		t3(u("joy"), phdFrom, univB),
		t3(u("tim"), phdFrom, univA),
		t3(u("ben"), phdFrom, univA),
		t3(u("courseDB"), typ, gradCourse),
		t3(u("courseOS"), typ, gradCourse),
	}

	oracle = store.New()
	oracle.AddAll(ep1)
	oracle.AddAll(ep2)
	return []*client.InProcess{
		client.NewInProcess("ep1", store.NewFromTriples(ep1)),
		client.NewInProcess("ep2", store.NewFromTriples(ep2)),
	}, oracle
}

func newEngine(t *testing.T, eps []*client.InProcess, opts Options) *Engine {
	t.Helper()
	var list []client.Endpoint
	for _, ep := range eps {
		list = append(list, ep)
	}
	fed, err := federation.New(list...)
	if err != nil {
		t.Fatal(err)
	}
	return MustNew(fed, opts)
}

// qa is the paper's running-example query (Figure 2).
const qa = `
	PREFIX ub: <http://lubm.org/ub#>
	PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
	SELECT ?S ?P ?U ?A WHERE {
		?S ub:advisor ?P .
		?S rdf:type ub:GraduateStudent .
		?P ub:teacherOf ?C .
		?P rdf:type ub:AssociateProfessor .
		?S ub:takesCourse ?C .
		?C rdf:type ub:GraduateCourse .
		?P ub:PhDDegreeFrom ?U .
		?U ub:address ?A .
	}`

// oracleResults evaluates the query centrally over the union of all
// endpoint data — the ground-truth federated answer.
func oracleResults(t *testing.T, oracle *store.Store, query string) *sparql.Results {
	t.Helper()
	res, err := eval.New(oracle).QueryString(query)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	res.Rows = sparql.DistinctRows(res.Rows)
	res.Sort()
	return res
}

func runLusail(t *testing.T, e *Engine, query string) (*sparql.Results, *Profile) {
	t.Helper()
	res, prof, err := e.QueryString(context.Background(), query)
	if err != nil {
		t.Fatalf("lusail: %v", err)
	}
	res.Rows = sparql.DistinctRows(res.Rows)
	res.Sort()
	return res, prof
}

func assertSameResults(t *testing.T, got, want *sparql.Results) {
	t.Helper()
	if !reflect.DeepEqual(got.Vars, want.Vars) {
		t.Fatalf("vars: got %v, want %v", got.Vars, want.Vars)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("rows mismatch:\n got (%d): %v\nwant (%d): %v",
			len(got.Rows), got.Rows, len(want.Rows), want.Rows)
	}
}

func TestPaperRunningExample(t *testing.T) {
	eps, oracle := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	got, prof := runLusail(t, e, qa)
	want := oracleResults(t, oracle, qa)
	assertSameResults(t, got, want)
	// The paper's analysis: ?U must be global; ?S and ?C must be local.
	gjvs := map[string]bool{}
	for _, v := range prof.GJVs {
		gjvs[v] = true
	}
	if !gjvs["U"] {
		t.Errorf("?U should be a GJV; got %v", prof.GJVs)
	}
	if gjvs["S"] || gjvs["C"] {
		t.Errorf("?S and ?C should be local; got %v", prof.GJVs)
	}
	if gjvs["P"] {
		t.Errorf("?P should be local without Ann; got %v", prof.GJVs)
	}
	// Cross-endpoint answers must be present: Tim's students see AddrA.
	found := false
	for i := range got.Rows {
		b := got.Binding(i)
		if b["P"] == u("tim") && b["A"] == rdf.NewLiteral("AddrA") {
			found = true
		}
	}
	if !found {
		t.Error("missing interlink answer (kim, tim, univA, AddrA)")
	}
}

func TestExtraneousGJVStillCorrect(t *testing.T) {
	// With Ann, ?P becomes a (false) GJV; Lemma 2 says results still match.
	eps, oracle := paperFederation(true)
	e := newEngine(t, eps, DefaultOptions())
	got, prof := runLusail(t, e, qa)
	want := oracleResults(t, oracle, qa)
	assertSameResults(t, got, want)
	gjvs := map[string]bool{}
	for _, v := range prof.GJVs {
		gjvs[v] = true
	}
	if !gjvs["P"] {
		t.Errorf("?P should be (extraneously) global with Ann; got %v", prof.GJVs)
	}
}

func TestSingleSubqueryWhenNoGJV(t *testing.T) {
	eps, oracle := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	// Students with their advisors: all instance-local. The ?C type
	// pattern gives ?C a subject occurrence, so its locality is checkable
	// (a pure object-only ?C would be escalated per Section 3.3 Case 2).
	q := `PREFIX ub: <http://lubm.org/ub#>
	      PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
	      SELECT ?S ?P ?C WHERE {
	        ?S ub:advisor ?P . ?S ub:takesCourse ?C . ?P ub:teacherOf ?C .
	        ?C rdf:type ub:GraduateCourse }`
	got, prof := runLusail(t, e, q)
	want := oracleResults(t, oracle, q)
	assertSameResults(t, got, want)
	if prof.Subqueries != 1 {
		t.Errorf("expected 1 subquery, got %d (%v)", prof.Subqueries, prof.Decomposition)
	}
	if len(prof.GJVs) != 0 {
		t.Errorf("expected no GJVs, got %v", prof.GJVs)
	}
}

func TestDecompositionInvariants(t *testing.T) {
	eps, _ := paperFederation(true)
	e := newEngine(t, eps, DefaultOptions())
	q := sparql.MustParse(qa)
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
	sqs := e.decompose(br, sources, gjv, stats)

	// Invariant 1: every pattern appears in exactly one subquery.
	count := make(map[string]int)
	for _, sq := range sqs {
		for _, tp := range sq.Patterns {
			count[tp.String()]++
		}
	}
	if len(count) != len(br.Patterns) {
		t.Errorf("pattern coverage: %d distinct patterns in subqueries, want %d", len(count), len(br.Patterns))
	}
	for p, c := range count {
		if c != 1 {
			t.Errorf("pattern %s appears %d times", p, c)
		}
	}
	// Invariant 2: no subquery contains a pair sharing a GJV.
	for _, sq := range sqs {
		for i := 0; i < len(sq.Patterns); i++ {
			for j := i + 1; j < len(sq.Patterns); j++ {
				if conflict(sq.Patterns[i], sq.Patterns[j], gjv) {
					t.Errorf("subquery %s contains conflicting pair", sq)
				}
			}
		}
	}
	// Invariant 3: all patterns in a subquery share the subquery's sources.
	for _, sq := range sqs {
		for _, pi := range sq.patternIdx {
			if !sameSources(sq.Sources, sources[pi]) {
				t.Errorf("subquery %s has pattern with different sources", sq)
			}
		}
	}
}

func TestFilterPushdownAndGlobalFilter(t *testing.T) {
	eps, oracle := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	q := `PREFIX ub: <http://lubm.org/ub#>
	      SELECT ?S ?A WHERE {
	        ?S ub:advisor ?P .
	        ?P ub:PhDDegreeFrom ?U .
	        ?U ub:address ?A .
	        FILTER(STR(?A) != "AddrB")
	      }`
	got, _ := runLusail(t, e, q)
	want := oracleResults(t, oracle, q)
	assertSameResults(t, got, want)
}

func TestOptionalAtGlobalLevel(t *testing.T) {
	eps, oracle := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	q := `PREFIX ub: <http://lubm.org/ub#>
	      SELECT ?P ?U ?A WHERE {
	        ?P ub:PhDDegreeFrom ?U .
	        OPTIONAL { ?U ub:address ?A }
	      }`
	got, _ := runLusail(t, e, q)
	want := oracleResults(t, oracle, q)
	assertSameResults(t, got, want)
	// Every professor keeps a row even if the university address is remote
	// or absent; with our data all addresses resolve, so check count > 0.
	if len(got.Rows) == 0 {
		t.Fatal("optional query returned nothing")
	}
}

func TestUnionDistribution(t *testing.T) {
	eps, oracle := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	q := `PREFIX ub: <http://lubm.org/ub#>
	      SELECT ?X WHERE {
	        { ?X ub:teacherOf ?C } UNION { ?X ub:takesCourse ?C }
	      }`
	got, _ := runLusail(t, e, q)
	want := oracleResults(t, oracle, q)
	assertSameResults(t, got, want)
}

func TestAskForm(t *testing.T) {
	eps, _ := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	res, _, err := e.QueryString(context.Background(), `PREFIX ub: <http://lubm.org/ub#>
		ASK { ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsBoolean || !res.Boolean {
		t.Errorf("ASK = %+v", res)
	}
}

// TestAskRequests pins what a two-branch ASK sends, cold and warm: its
// branches run one after another and the first row ends the query, so a
// branch after one that answers true sends nothing.
func TestAskRequests(t *testing.T) {
	// cold and warm are the requests when every planned request is sent.
	// A true ASK closes the answering branch's scan at its first row, and
	// the pool then dispatches none of that scan's requests not yet
	// started, which is the intended early stop: that scan sends from 1
	// to scan requests, one per relevant source, as the first row's
	// timing falls.
	// Planning requests, and those of a branch that answers nothing, are
	// exact.
	for _, tc := range []struct {
		name, where string
		want        bool
		cold, warm  int64
		scan        int64
	}{
		{"first branch true", `{ ?S ub:takesCourse ?C } UNION { ?P ub:PhDDegreeFrom ?U . ?U ub:takesCourse ?C }`, true, 4, 2, 2},
		{"second branch true", `{ ?P ub:PhDDegreeFrom ?U . ?U ub:takesCourse ?C } UNION { ?S ub:takesCourse ?C }`, true, 8, 6, 2},
		{"both false", `{ ?P ub:PhDDegreeFrom ?U . ?U ub:takesCourse ?C } UNION { ?S ub:advisor ?P . ?P ub:takesCourse ?C }`, false, 10, 8, 0},
	} {
		eps, _ := paperFederation(false)
		var m client.Metrics
		var list []client.Endpoint
		for _, ep := range eps {
			list = append(list, client.NewInstrumented(ep, &m))
		}
		e := MustNew(federation.MustNew(list...), DefaultOptions())
		q := "PREFIX ub: <http://lubm.org/ub#> ASK { " + tc.where + " }"
		for _, run := range []struct {
			name string
			want int64
		}{{"cold", tc.cold}, {"warm", tc.warm}} {
			before := m.Snapshot()
			res, _, err := e.QueryString(context.Background(), q)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, run.name, err)
			}
			if !res.IsBoolean || res.Boolean != tc.want {
				t.Errorf("%s %s: ASK = %+v, want %v", tc.name, run.name, res, tc.want)
			}
			lo := run.want - max(tc.scan-1, 0)
			if got := m.Snapshot().Sub(before).Requests; got < lo || got > run.want {
				t.Errorf("%s %s: %d requests, want [%d, %d]", tc.name, run.name, got, lo, run.want)
			}
		}
	}
}

func TestCountAggregateFederated(t *testing.T) {
	eps, oracle := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	q := `PREFIX ub: <http://lubm.org/ub#>
	      SELECT (COUNT(DISTINCT ?S) AS ?n) WHERE { ?S ub:advisor ?P }`
	got, _ := runLusail(t, e, q)
	want := oracleResults(t, oracle, q)
	assertSameResults(t, got, want)
}

func TestLimitTruncatesCompleteResult(t *testing.T) {
	eps, _ := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	q := `PREFIX ub: <http://lubm.org/ub#>
	      SELECT ?S WHERE { ?S ub:advisor ?P } ORDER BY ?S LIMIT 2`
	got, _, err := e.QueryString(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 {
		t.Errorf("LIMIT 2 returned %d rows", len(got.Rows))
	}
}

// ORDER BY on a variable the query does not project: the tail must sort the
// joined relation before projecting the key away.
func TestSelectOrdersByNonProjectedVariable(t *testing.T) {
	age := func(x string, a int64) rdf.Triple {
		return rdf.Triple{S: rdf.NewIRI("http://ex/" + x), P: rdf.NewIRI("http://ex/age"), O: rdf.NewInteger(a)}
	}
	e := newEngine(t, []*client.InProcess{
		client.NewInProcess("ep1", store.NewFromTriples([]rdf.Triple{age("x3", 3), age("x1", 1)})),
		client.NewInProcess("ep2", store.NewFromTriples([]rdf.Triple{age("x2", 2)})),
	}, DefaultOptions())
	for order, want := range map[string]string{"?a": "http://ex/x1", "DESC(?a)": "http://ex/x3"} {
		rows, err := e.Select(context.Background(), `SELECT ?x WHERE { ?x <http://ex/age> ?a } ORDER BY `+order+` LIMIT 1`)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for rows.Next() {
			got = append(got, rows.Row()[0].Value)
		}
		if err := rows.Close(); err != nil || rows.Err() != nil {
			t.Fatal(err, rows.Err())
		}
		if !reflect.DeepEqual(rows.Vars(), []string{"x"}) || !reflect.DeepEqual(got, []string{want}) {
			t.Errorf("ORDER BY %s: %v %v, want [%s]", order, rows.Vars(), got, want)
		}
	}
}

func TestEmptyResultForUnknownPredicate(t *testing.T) {
	eps, _ := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	got, _ := runLusail(t, e, `SELECT ?S WHERE { ?S <http://nowhere/p> ?O }`)
	if len(got.Rows) != 0 {
		t.Errorf("expected empty result, got %d rows", len(got.Rows))
	}
}

func TestDisableSAPESameResults(t *testing.T) {
	eps, oracle := paperFederation(true)
	opts := DefaultOptions()
	opts.DisableSAPE = true
	e := newEngine(t, eps, opts)
	got, prof := runLusail(t, e, qa)
	want := oracleResults(t, oracle, qa)
	assertSameResults(t, got, want)
	if prof.Delayed != 0 {
		t.Errorf("LADE-only mode delayed %d subqueries", prof.Delayed)
	}
}

func TestAllThresholdModesSameResults(t *testing.T) {
	for _, mode := range []ThresholdMode{ThresholdMu, ThresholdMuSigma, ThresholdMu2Sigma, ThresholdOutliers} {
		eps, oracle := paperFederation(true)
		opts := DefaultOptions()
		opts.Threshold = mode
		e := newEngine(t, eps, opts)
		got, _ := runLusail(t, e, qa)
		want := oracleResults(t, oracle, qa)
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("threshold %v: results differ", mode)
		}
	}
}

func TestCheckCacheReducesRequests(t *testing.T) {
	eps, _ := paperFederation(false)
	var m client.Metrics
	var list []client.Endpoint
	for _, ep := range eps {
		list = append(list, client.NewInstrumented(ep, &m))
	}
	fed := federation.MustNew(list...)
	e := MustNew(fed, DefaultOptions())
	ctx := context.Background()
	if _, _, err := e.QueryString(ctx, qa); err != nil {
		t.Fatal(err)
	}
	first := m.Snapshot()
	if _, _, err := e.QueryString(ctx, qa); err != nil {
		t.Fatal(err)
	}
	second := m.Snapshot().Sub(first)
	if second.Requests >= first.Requests {
		t.Errorf("cached run used %d requests, first run %d", second.Requests, first.Requests)
	}
	// Disabling caches restores the probe traffic.
	e.ClearCaches()
	preClear := m.Snapshot()
	if _, _, err := e.QueryString(ctx, qa); err != nil {
		t.Fatal(err)
	}
	third := m.Snapshot().Sub(preClear)
	if third.Requests <= second.Requests {
		t.Errorf("after ClearCaches expected more requests: %d <= %d", third.Requests, second.Requests)
	}
}

func TestProfilePhases(t *testing.T) {
	eps, _ := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	_, prof := runLusail(t, e, qa)
	if prof.Total <= 0 {
		t.Error("profile total missing")
	}
	if prof.Subqueries == 0 {
		t.Error("profile subqueries missing")
	}
	if prof.CountProbes == 0 {
		t.Error("profile count probes missing")
	}
	if prof.ChecksIssued == 0 {
		t.Error("profile checks missing")
	}
}

func TestDisconnectedSubgraphsJoinedByFilter(t *testing.T) {
	// The C5/B5/B6 shape: two disjoint subgraphs related only by a FILTER.
	eps, oracle := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	q := `PREFIX ub: <http://lubm.org/ub#>
	      SELECT ?P1 ?P2 WHERE {
	        ?P1 ub:teacherOf ?C1 .
	        ?P2 ub:PhDDegreeFrom ?U2 .
	        FILTER(?P1 = ?P2)
	      }`
	got, _ := runLusail(t, e, q)
	want := oracleResults(t, oracle, q)
	assertSameResults(t, got, want)
	if len(got.Rows) == 0 {
		t.Error("filter-joined disjoint subgraphs returned nothing")
	}
}

// Failure injection: with endpoints that fail some of their requests, the
// engine must surface the error rather than return silently partial
// results.
func TestFailureInjection(t *testing.T) {
	eps, _ := paperFederation(false)
	var faulty []client.Endpoint
	for i, ep := range eps {
		faulty = append(faulty, resilience.WithFaults(ep, resilience.FaultSpec{ErrorRate: 0.34, Seed: uint64(i)}))
	}
	e := MustNew(federation.MustNew(faulty...), DefaultOptions())
	if _, _, err := e.QueryString(context.Background(), qa); !errors.Is(err, resilience.ErrInjected) {
		t.Errorf("err = %v, want an injected failure", err)
	}
}

func TestFederatedConstruct(t *testing.T) {
	eps, oracle := paperFederation(false)
	e := newEngine(t, eps, DefaultOptions())
	q := `PREFIX ub: <http://lubm.org/ub#>
	      CONSTRUCT { ?P ub:almaMaterAddress ?A }
	      WHERE { ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A }`
	triples, prof, err := e.ConstructString(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil || prof.Total <= 0 {
		t.Error("missing profile")
	}
	// Oracle: run the same CONSTRUCT centrally.
	wantTriples, err := eval.New(oracle).Construct(sparql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != len(wantTriples) {
		t.Fatalf("federated construct %d triples, oracle %d", len(triples), len(wantTriples))
	}
	want := map[rdf.Triple]bool{}
	for _, tr := range wantTriples {
		want[tr] = true
	}
	for _, tr := range triples {
		if !want[tr] {
			t.Errorf("unexpected triple %v", tr)
		}
	}
	// The cross-endpoint triple (tim -> AddrA) must be present.
	cross := rdf.Triple{S: u("tim"), P: u("almaMaterAddress"), O: rdf.NewLiteral("AddrA")}
	if !want[cross] {
		t.Fatal("oracle sanity: cross triple missing")
	}
	found := false
	for _, tr := range triples {
		if tr == cross {
			found = true
		}
	}
	if !found {
		t.Error("federated CONSTRUCT missed the interlink triple")
	}
}
