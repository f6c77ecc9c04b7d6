package baseline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/erh"
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

// sameSchema builds n endpoints with one schema, each a small university
// of students, advisors and courses, every professor holding a degree from
// university 0 (the interlink).
func sameSchema(n, studentsPer int) [][]rdf.Triple {
	typ := rdf.NewIRI(rdf.RDFType)
	var out [][]rdf.Triple
	for uni := 0; uni < n; uni++ {
		triples := []rdf.Triple{
			{S: u(fmt.Sprintf("univ%d", uni)), P: u("address"), O: rdf.NewLiteral(fmt.Sprintf("Addr%d", uni))},
		}
		for s := 0; s < studentsPer; s++ {
			stu := u(fmt.Sprintf("u%d_s%d", uni, s))
			prof := u(fmt.Sprintf("u%d_p%d", uni, s%3))
			course := u(fmt.Sprintf("u%d_c%d", uni, s%3))
			triples = append(triples,
				rdf.Triple{S: stu, P: typ, O: u("GraduateStudent")},
				rdf.Triple{S: stu, P: u("advisor"), O: prof},
				rdf.Triple{S: stu, P: u("takesCourse"), O: course},
				rdf.Triple{S: prof, P: typ, O: u("Professor")},
				rdf.Triple{S: prof, P: u("teacherOf"), O: course},
				rdf.Triple{S: course, P: typ, O: u("Course")},
				rdf.Triple{S: prof, P: u("PhDDegreeFrom"), O: u("univ0")},
			)
		}
		out = append(out, triples)
	}
	return out
}

func iri(host, local string) rdf.Term { return rdf.NewIRI("http://" + host + "/" + local) }

// crossDomain builds endpoints with different URI authorities (like
// LargeRDFBench's datasets): drugbank links into kegg, and chebi reuses
// kegg's pathway predicate on subjects of its own authority, so only
// join-aware pruning can tell that drug targets never reach it.
func crossDomain() [][]rdf.Triple {
	return [][]rdf.Triple{
		{
			{S: iri("drugbank.org", "d1"), P: iri("drugbank.org", "name"), O: rdf.NewLiteral("aspirin")},
			{S: iri("drugbank.org", "d1"), P: iri("drugbank.org", "target"), O: iri("kegg.org", "k9")},
			{S: iri("drugbank.org", "d2"), P: iri("drugbank.org", "name"), O: rdf.NewLiteral("ibuprofen")},
		},
		{
			{S: iri("kegg.org", "k9"), P: iri("kegg.org", "pathway"), O: rdf.NewLiteral("pw1")},
			{S: iri("kegg.org", "k10"), P: iri("kegg.org", "pathway"), O: rdf.NewLiteral("pw2")},
		},
		{
			{S: iri("chebi.org", "c1"), P: iri("kegg.org", "pathway"), O: rdf.NewLiteral("pw3")},
		},
	}
}

// federate serves each dataset in process behind a shared request counter
// and builds the engine of the given system over it; the catalog the
// index-based systems read is built on the uncounted endpoints, as
// offline preprocessing.
func federate(t *testing.T, system string, datasets [][]rdf.Triple) (*Engine, *client.Metrics) {
	t.Helper()
	var m client.Metrics
	var raw, counted []client.Endpoint
	for i, triples := range datasets {
		ep := client.NewInProcess(fmt.Sprintf("ep%d", i), store.NewFromTriples(triples))
		raw = append(raw, ep)
		counted = append(counted, client.NewInstrumented(ep, &m))
	}
	fed := federation.MustNew(counted...)
	if system == "FedX" {
		return NewFedX(fed), &m
	}
	cat := catalog.NewStore("", 0)
	if err := catalog.Build(context.Background(), federation.MustNew(raw...), erh.New(0), cat); err != nil {
		t.Fatal(err)
	}
	if system == "HiBISCuS" {
		return NewHiBISCuS(fed, cat), &m
	}
	return NewSPLENDID(fed, cat), &m
}

const (
	prefixes = `PREFIX ub: <http://lubm.org/ub#>
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> `
	studentAdvisor = prefixes + `SELECT ?s ?p ?c WHERE {
		?s rdf:type ub:GraduateStudent . ?s ub:advisor ?p .
		?s ub:takesCourse ?c . ?p ub:teacherOf ?c }`
	advisorCourses = prefixes + `SELECT ?s ?p ?c WHERE { ?s ub:advisor ?p . ?s ub:takesCourse ?c }`
)

// TestSystems runs every comparator system over the same cases. Each case
// checks the answer against centralized evaluation of the union of the
// datasets, and pins request counts where they expose a policy decision.
func TestSystems(t *testing.T) {
	for _, tc := range []struct {
		name     string
		datasets [][]rdf.Triple
		query    string
		rows     int              // expected row count; -1: whatever the oracle says
		requests map[string]int64 // exact request count per system, where pinned
	}{
		{name: "same-schema join", datasets: sameSchema(3, 4), query: studentAdvisor, rows: 12},
		{name: "interlink join", datasets: sameSchema(3, 4), rows: 9,
			query: prefixes + `SELECT ?p ?a WHERE { ?p ub:PhDDegreeFrom ?u . ?u ub:address ?a }`},
		{name: "optional and filter", datasets: sameSchema(2, 4), rows: 6,
			query: prefixes + `SELECT ?p ?a WHERE {
				?p ub:PhDDegreeFrom ?u . OPTIONAL { ?u ub:address ?a } FILTER(ISIRI(?p)) }`},
		// The OPTIONAL's filter reads ?l, bound outside the block: it is
		// the left join's condition, so (a, 1, 3) keeps its extension.
		{name: "optional filter on outer variable", rows: 2,
			datasets: [][]rdf.Triple{
				{{S: u("a"), P: u("lo"), O: rdf.NewInteger(1)}, {S: u("b"), P: u("lo"), O: rdf.NewInteger(5)}},
				{{S: u("a"), P: u("hi"), O: rdf.NewInteger(3)}, {S: u("a"), P: u("hi"), O: rdf.NewInteger(0)},
					{S: u("b"), P: u("hi"), O: rdf.NewInteger(3)}},
			},
			query: prefixes + `SELECT ?x ?l ?h WHERE { ?x ub:lo ?l OPTIONAL { ?x ub:hi ?h FILTER(?h > ?l) } }`},
		{name: "union", datasets: sameSchema(2, 4), rows: -1,
			query: prefixes + `SELECT ?x WHERE { { ?x ub:teacherOf ?c } UNION { ?x ub:takesCourse ?c } }`},
		{name: "pattern without sources", datasets: sameSchema(2, 4), rows: 0,
			query: `SELECT ?s WHERE { ?s <http://nowhere/p> ?o }`},
		// Disjoint schemas: FedX ASKs 3 patterns × 2 endpoints, then the
		// two patterns only ep0 answers collapse into one exclusive group
		// and the third is one bound join. SPLENDID keeps three units.
		{name: "exclusive groups", rows: 1,
			datasets: [][]rdf.Triple{
				{{S: u("a"), P: u("onlyAt0"), O: u("b")}, {S: u("a"), P: u("alsoOnlyAt0"), O: u("c")}},
				{{S: u("b"), P: u("onlyAt1"), O: u("d")}},
			},
			query:    prefixes + `SELECT * WHERE { ?a ub:onlyAt0 ?b . ?a ub:alsoOnlyAt0 ?c . ?b ub:onlyAt1 ?d }`,
			requests: map[string]int64{"FedX": 8, "HiBISCuS": 2, "SPLENDID": 3}},
		// Variable counting runs the one-free-variable pattern first: its
		// 14 students fit one VALUES block for takesCourse at both
		// endpoints. Starting from takesCourse's 80 students would ship 6.
		{name: "variable counting", datasets: sameSchema(2, 40), rows: 14,
			query:    prefixes + `SELECT ?s ?c WHERE { ?s ub:takesCourse ?c . ?s ub:advisor ub:u0_p0 }`,
			requests: map[string]int64{"FedX": 4 + 1 + 2}},
		// LIMIT lets FedX and HiBISCuS stop after the first block of the
		// last bound join; SPLENDID has no such pushdown and pays for the
		// whole join (the LIMIT-free case below).
		{name: "limit", datasets: sameSchema(2, 40), query: advisorCourses + ` LIMIT 1`, rows: 1,
			requests: map[string]int64{"FedX": 4 + 2 + 2, "HiBISCuS": 2 + 2, "SPLENDID": 2 + 4*2}},
		// 80 advisor rows are within SPLENDID's bind-join threshold: 4
		// blocks of 20 to both endpoints. FedX ships 6 blocks of 15.
		{name: "bind join below threshold", datasets: sameSchema(2, 40), query: advisorCourses, rows: 80,
			requests: map[string]int64{"FedX": 4 + 2 + 6*2, "HiBISCuS": 2 + 6*2, "SPLENDID": 2 + 4*2}},
		// 120 rows are over it: SPLENDID fetches takesCourse whole and
		// hash joins; FedX keeps shipping bindings.
		{name: "hash join above threshold", datasets: sameSchema(2, 60), query: advisorCourses, rows: 120,
			requests: map[string]int64{"FedX": 4 + 2 + 8*2, "HiBISCuS": 2 + 8*2, "SPLENDID": 2 + 2}},
		// Only the authorities of ?k on both sides of the join rule chebi
		// out for the pathway pattern; HiBISCuS then has two exclusive
		// groups, the others query chebi too.
		{name: "join-aware pruning", datasets: crossDomain(), rows: 1,
			query: `SELECT ?d ?p WHERE {
				?d <http://drugbank.org/target> ?k . ?k <http://kegg.org/pathway> ?p }`,
			requests: map[string]int64{"FedX": 6 + 1 + 2, "HiBISCuS": 1 + 1, "SPLENDID": 1 + 2}},
		// A constant subject of a foreign authority: the authority sketch
		// answers without traffic, VoID counts need ASK confirmation at
		// both endpoints that have the predicate.
		{name: "authority pruning", datasets: crossDomain(), rows: 0,
			query:    `SELECT ?o WHERE { <http://elsewhere.org/x> <http://kegg.org/pathway> ?o }`,
			requests: map[string]int64{"FedX": 3, "HiBISCuS": 0, "SPLENDID": 2}},
	} {
		oracle := store.New()
		for _, triples := range tc.datasets {
			oracle.AddAll(triples)
		}
		want, err := eval.New(oracle).QueryString(tc.query)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		want.Rows = sparql.DistinctRows(want.Rows)
		want.Sort()
		if tc.rows >= 0 && len(want.Rows) != tc.rows {
			t.Fatalf("%s: oracle has %d rows, case expects %d", tc.name, len(want.Rows), tc.rows)
		}
		for _, system := range []string{"FedX", "HiBISCuS", "SPLENDID"} {
			t.Run(tc.name+"/"+system, func(t *testing.T) {
				eng, m := federate(t, system, tc.datasets)
				got, err := eng.QueryString(context.Background(), tc.query)
				if err != nil {
					t.Fatal(err)
				}
				got.Rows = sparql.DistinctRows(got.Rows)
				got.Sort()
				if sparql.MustParse(tc.query).Limit >= 0 {
					// Any LIMIT-sized subset is a valid answer.
					if len(got.Rows) != len(want.Rows) {
						t.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
					}
				} else if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%d rows, oracle %d", len(got.Rows), len(want.Rows))
				}
				if pinned, ok := tc.requests[system]; ok && m.Snapshot().Requests != pinned {
					t.Errorf("%d requests, want %d", m.Snapshot().Requests, pinned)
				}
			})
		}
	}
}

// TestUnitQueryText pins the text of one rendered unit: an exclusive
// group with a pushed filter conjunct and a bound join's VALUES block.
// The comparators send their published SELECT DISTINCT with the elements
// in this order, and their endpoints' work depends on both.
func TestUnitQueryText(t *testing.T) {
	brs, err := qplan.Normalize(sparql.MustParse(prefixes + `SELECT * WHERE {
		?s ub:advisor ?p . ?p ub:teacherOf ?c . ?s ub:age ?a FILTER(?c != ub:c0 && ?a > 20) }`))
	if err != nil {
		t.Fatal(err)
	}
	br := brs[0]
	units := buildUnits(br.Patterns, [][]string{{"ep0"}, {"ep0"}, {"ep0", "ep1"}}, br.Filters, true)
	if len(units) != 2 {
		t.Fatalf("%d units, want the group and the shared pattern", len(units))
	}
	group := *units[0]
	group.Values = []sparql.InlineData{{Vars: []string{"p"}, Rows: [][]rdf.Term{{u("p0")}, {u("p1")}}}}
	const want = "SELECT DISTINCT ?c ?p ?s WHERE { ?s <http://lubm.org/ub#advisor> ?p . " +
		"?p <http://lubm.org/ub#teacherOf> ?c . VALUES (?p) { (<http://lubm.org/ub#p0>) (<http://lubm.org/ub#p1>) } . " +
		"FILTER ((?c != <http://lubm.org/ub#c0>)) . }"
	if got := group.Query().String(); got != want {
		t.Errorf("unit text\n%s\nwant\n%s", got, want)
	}
}

// askFlaky fails its first request and answers the rest.
type askFlaky struct {
	client.Endpoint
	requests int
}

func (e *askFlaky) QueryStream(ctx context.Context, q string) (sparql.RowReader, error) {
	if e.requests++; e.requests == 1 {
		return nil, fmt.Errorf("endpoint %s: connection reset", e.Name())
	}
	return e.Endpoint.QueryStream(ctx, q)
}

// FedX's ASK selection: one ASK per pattern and endpoint, cached by
// normalized pattern. A failed ASK keeps its endpoint as a source with a
// warning and is asked again next time; every ASK failing, or the context
// ending, aborts.
func TestASKSelection(t *testing.T) {
	var m client.Metrics
	ep := func(name string, triples ...rdf.Triple) client.Endpoint {
		return client.NewInstrumented(client.NewInProcess(name, store.NewFromTriples(triples)), &m)
	}
	p, q := u("p"), u("q")
	fl := &askFlaky{Endpoint: ep("flaky", rdf.Triple{S: u("x"), P: u("r"), O: u("y")})}
	fed := federation.MustNew(
		ep("ep1", rdf.Triple{S: u("a"), P: p, O: u("b")}),
		ep("ep2", rdf.Triple{S: u("c"), P: p, O: u("d")}, rdf.Triple{S: u("c"), P: q, O: u("e")}),
		fl)
	sel := &askSelection{fed: fed, pool: erh.New(4)}
	pattern := func(pred, s, o string) sparql.TriplePattern {
		return sparql.TriplePattern{S: sparql.Var(s), P: sparql.IRI(ub + pred), O: sparql.Var(o)}
	}
	sources := func(ctx context.Context, tp sparql.TriplePattern) ([]string, []resilience.Warning) {
		t.Helper()
		ctx = resilience.WithWarnings(ctx)
		got, err := sel.block(ctx, []sparql.TriplePattern{tp})
		if err != nil {
			t.Fatal(err)
		}
		return got[0], resilience.TakeWarnings(ctx)
	}

	got, ws := sources(context.Background(), pattern("q", "s", "o"))
	if !reflect.DeepEqual(got, []string{"ep2", "flaky"}) || len(ws) != 1 || ws[0].Endpoint != "flaky" {
		t.Errorf("with flaky down: sources %v, warnings %+v; want [ep2 flaky] and one warning", got, ws)
	}
	before := m.Snapshot()
	got, ws = sources(context.Background(), pattern("q", "x", "y"))
	if d := m.Snapshot().Sub(before); !reflect.DeepEqual(got, []string{"ep2"}) || len(ws) != 0 || d.Asks != 1 {
		t.Errorf("next lookup: sources %v, warnings %+v, %d ASKs; want [ep2], none, and one ASK to flaky", got, ws, d.Asks)
	}
	before = m.Snapshot()
	if got, _ := sources(context.Background(), pattern("q", "s", "o")); !reflect.DeepEqual(got, []string{"ep2"}) || m.Snapshot().Sub(before).Requests != 0 {
		t.Errorf("cached lookup: sources %v after %d requests; want [ep2] and none", got, m.Snapshot().Sub(before).Requests)
	}
	if got, _ := sources(context.Background(), pattern("p", "s", "o")); !reflect.DeepEqual(got, []string{"ep1", "ep2"}) {
		t.Errorf("sources for p = %v", got)
	}
	if got, _ := sources(context.Background(), pattern("zzz", "s", "o")); len(got) != 0 {
		t.Errorf("sources for zzz = %v", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sel.block(ctx, []sparql.TriplePattern{pattern("other", "s", "o")}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled selection: err = %v, want context.Canceled", err)
	}
	dead := federation.MustNew(&askFlaky{Endpoint: ep("a")}, &askFlaky{Endpoint: ep("b")})
	var ee *client.EndpointError
	if _, err := (&askSelection{fed: dead, pool: erh.New(4)}).block(context.Background(), []sparql.TriplePattern{pattern("p", "s", "o")}); !errors.As(err, &ee) {
		t.Errorf("every ASK failing: err = %v, want an EndpointError", err)
	}

	// A block is looked up in the cache before any of its ASKs is sent, so
	// a pattern it holds twice is asked twice, deterministically.
	sel = &askSelection{fed: federation.MustNew(ep("ep1", rdf.Triple{S: u("a"), P: p, O: u("b")}), ep("ep2")), pool: erh.New(4)}
	twice := []sparql.TriplePattern{pattern("p", "s", "o"), pattern("p", "x", "y")}
	for i, want := range []int64{4, 0} {
		before = m.Snapshot()
		got, err := sel.block(context.Background(), twice)
		if d := m.Snapshot().Sub(before); err != nil || !reflect.DeepEqual(got, [][]string{{"ep1"}, {"ep1"}}) || d.Asks != want {
			t.Errorf("repeated pattern, pass %d: sources %v, err %v, %d ASKs; want [[ep1] [ep1]] and %d", i, got, err, d.Asks, want)
		}
	}
}
