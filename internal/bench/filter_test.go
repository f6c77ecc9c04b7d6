package bench

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"lusail/internal/core"
	"lusail/internal/eval"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// filterDatasets is a three-endpoint federation for filter placement:
// names and labels whose lexical forms collide across term kinds (an IRI
// and a string, a tagged and a plain string, an integer and a string),
// numbers on both sides of a cross-endpoint link, and an optional property.
func filterDatasets() []Dataset {
	a := func(s string) rdf.Term { return rdf.NewIRI("http://a.org/" + s) }
	b := func(s string) rdf.Term { return rdf.NewIRI("http://b.org/" + s) }
	c := func(s string) rdf.Term { return rdf.NewIRI("http://c.org/" + s) }
	x := rdf.NewIRI("http://x/a")
	one := rdf.NewInteger(1)
	tr := func(s, p, o rdf.Term) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	return []Dataset{
		{Name: "a", Triples: []rdf.Triple{
			tr(a("s1"), a("name"), x), tr(a("s1"), a("num"), rdf.NewInteger(1)), tr(a("s1"), a("opt"), rdf.NewLiteral("http://x/a")),
			tr(a("s2"), a("name"), rdf.NewLangLiteral("a", "en")), tr(a("s2"), a("num"), rdf.NewInteger(3)),
			tr(a("s3"), a("name"), one), tr(a("s3"), a("num"), rdf.NewInteger(5)), tr(a("s3"), a("opt"), rdf.NewLiteral("1")),
			tr(a("s4"), a("name"), rdf.NewLiteral("a")), tr(a("s4"), a("num"), rdf.NewInteger(7)),
			tr(a("s1"), a("link"), b("t1")), tr(a("s2"), a("link"), b("t2")),
			tr(a("s3"), a("link"), b("t3")), tr(a("s4"), a("link"), b("t1")),
		}},
		{Name: "b", Triples: []rdf.Triple{
			tr(b("t1"), b("label"), rdf.NewLiteral("http://x/a")), tr(b("t1"), b("val"), rdf.NewInteger(2)),
			tr(b("t2"), b("label"), rdf.NewLiteral("a")), tr(b("t2"), b("val"), rdf.NewInteger(4)),
			tr(b("t3"), b("label"), rdf.NewLiteral("1")), tr(b("t3"), b("val"), rdf.NewInteger(6)),
			tr(b("t4"), b("label"), x), tr(b("t4"), b("val"), rdf.NewTypedLiteral("1.0", rdf.XSDDecimal)),
			tr(b("t5"), b("label"), rdf.NewLangLiteral("a", "en")), tr(b("t5"), b("val"), rdf.NewInteger(8)),
			tr(b("t6"), b("label"), one), tr(b("t6"), b("val"), rdf.NewInteger(5)),
		}},
		{Name: "c", Triples: []rdf.Triple{
			tr(c("s5"), a("name"), rdf.NewLiteral("1")), tr(c("s5"), a("num"), rdf.NewInteger(2)),
			tr(c("s5"), a("link"), b("t4")),
		}},
	}
}

// TestFilterPlacementParity holds filter placement — conjuncts pushed
// apart, a disjunction kept whole, OPTIONAL conjuncts, residual filters,
// and equality filters run as hash-join keys — and the join rule on
// unbound shared variables — VALUES with UNDEF, OPTIONAL blocks binding
// the same variable — to the eval oracle over the union graph: every
// system returns the oracle's row multiset.
func TestFilterPlacementParity(t *testing.T) {
	datasets := filterDatasets()
	const prefix = "PREFIX a: <http://a.org/>\nPREFIX b: <http://b.org/>\n"
	cases := []struct{ name, query string }{
		{"conjuncts in different subqueries", `SELECT ?s ?v ?t ?w WHERE {
			?s a:num ?v . ?s a:link ?t . ?t b:val ?w . FILTER(?v > 1 && ?w < 7 && ?v != ?w) }`},
		{"disjunction stays whole", `SELECT ?s ?v ?t ?w WHERE {
			?s a:num ?v . ?s a:link ?t . ?t b:val ?w . FILTER(?v > 4 || ?w < 3) }`},
		{"conjunct in an OPTIONAL filter", `SELECT ?s ?v ?t ?w WHERE {
			?s a:num ?v . ?s a:link ?t OPTIONAL { ?t b:val ?w . ?t b:label ?l FILTER(?w > 1 && ?w < ?v) } }`},
		{"equality over an OPTIONAL-only variable", `SELECT ?s ?n ?t ?l ?o WHERE {
			?s a:name ?n . ?t b:label ?l OPTIONAL { ?s a:opt ?o } FILTER(STR(?o) = STR(?l)) }`},
		{"STR equality across term kinds", `SELECT ?s ?n ?t ?l WHERE {
			?s a:name ?n . ?t b:label ?l FILTER(STR(?n) = STR(?l)) }`},
		{"sameTerm across components", `SELECT ?s ?n ?t ?l WHERE {
			?s a:name ?n . ?t b:label ?l FILTER(sameTerm(?l, ?n)) }`},
		{"keyed, pushed and residual conjuncts", `SELECT ?s ?n ?v ?t ?l ?w WHERE {
			?s a:name ?n . ?s a:num ?v . ?t b:label ?l . ?t b:val ?w
			FILTER(STR(?n) = STR(?l) && ?v > 2 && ?w < 8 && ?v < ?w) }`},
		{"value equality is not keyed", `SELECT ?s ?v ?t ?w WHERE {
			?s a:num ?v . ?t b:val ?w FILTER(?v = ?w) }`},
		{"VALUES", `SELECT ?s ?v WHERE { ?s a:num ?v VALUES ?s { a:s1 } }`},
		{"VALUES with UNDEF", `SELECT ?s ?v WHERE {
			?s a:num ?v VALUES (?s ?v) { (UNDEF 3) (a:s1 UNDEF) } }`},
		{"OPTIONALs sharing a variable, opt first", `SELECT ?s ?v ?t WHERE {
			?s a:num ?v OPTIONAL { ?s a:opt ?t } OPTIONAL { ?s a:link ?t } }`},
		{"OPTIONALs sharing a variable, link first", `SELECT ?s ?v ?t WHERE {
			?s a:num ?v OPTIONAL { ?s a:link ?t } OPTIONAL { ?s a:opt ?t } }`},
		{"VALUES with a repeated row", `SELECT ?s ?v WHERE { ?s a:num ?v VALUES ?s { a:s1 a:s1 } }`},
		{"UNION of identical branches", `SELECT ?s ?v WHERE { { ?s a:num ?v } UNION { ?s a:num ?v } }`},
		{"OPTIONAL whose patterns share no endpoint", `SELECT ?s ?v ?t ?w WHERE {
			?s a:num ?v OPTIONAL { ?s a:link ?t . ?t b:val ?w } }`},
		{"OPTIONAL whose patterns share no endpoint, residual filter", `SELECT ?s ?v ?t ?w WHERE {
			?s a:num ?v OPTIONAL { ?s a:link ?t . ?t b:val ?w FILTER(?w > ?v) } }`},
	}
	st := store.New()
	for _, ds := range datasets {
		st.AddAll(ds.Triples)
	}
	fed, err := NewFed(datasets, InProcess())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			query := prefix + c.query
			want, err := eval.New(st).QueryString(query)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("the oracle returns no rows; the case tests nothing")
			}
			want.Sort()
			for _, kind := range []EngineKind{Lusail, LusailCatalog, LusailLADE, FedX, HiBISCuS, SPLENDID} {
				eng, err := fed.NewEngine(context.Background(), kind)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.QueryString(context.Background(), query)
				if err != nil {
					t.Errorf("%s: %v", kind, err)
					continue
				}
				got.Sort()
				if !reflect.DeepEqual(got.Vars, want.Vars) || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s: got %v %v\nwant %v %v", kind, got.Vars, got.Rows, want.Vars, want.Rows)
				}
			}
		})
	}
}

// TestValuesJoinPushedIntoScan: a VALUES block of the query text is
// rendered into every subquery that binds all of its variables, so the
// endpoints ship only the rows it admits. The UNDEF case keeps the rows
// either VALUES row is compatible with.
func TestValuesJoinPushedIntoScan(t *testing.T) {
	const prefix = "PREFIX a: <http://a.org/>\n"
	fed, err := NewFed(filterDatasets(), InProcess())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Trace = true
	eng := fed.NewLusail(opts)
	for _, c := range []struct {
		query         string
		scanned, rows int
	}{
		{`SELECT ?s ?v WHERE { ?s a:num ?v VALUES ?s { a:s1 } }`, 1, 1},
		{`SELECT ?s ?v WHERE { ?s a:num ?v VALUES (?s ?v) { (UNDEF 3) (a:s1 UNDEF) } }`, 2, 2},
		{`SELECT ?s ?v WHERE { ?s a:num ?v VALUES ?s { } }`, 0, 0},
	} {
		res, prof, err := eng.QueryString(context.Background(), prefix+c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		scanned := 0
		for _, sp := range obs.FindAll(prof.Trace, "scan") {
			n, _ := sp.Attr("rows")
			scanned += n.(int)
		}
		if scanned != c.scanned || len(res.Rows) != c.rows {
			t.Errorf("%s: scans returned %d rows, answer %d; want %d and %d", c.query, scanned, len(res.Rows), c.scanned, c.rows)
		}
	}
}

// TestFilterExistsRejected: the federation tier evaluates filters on
// joined rows, where an EXISTS block would see no graph, so every system
// rejects a FILTER with EXISTS anywhere in it instead of answering wrong
// rows.
func TestFilterExistsRejected(t *testing.T) {
	datasets := GenerateLUBM(DefaultLUBM(2))
	fed, err := NewFed(datasets, InProcess())
	if err != nil {
		t.Fatal(err)
	}
	const head = "PREFIX ub: <" + ubNS + ">\nSELECT ?x ?y WHERE { ?x ub:advisor ?y "
	for _, filter := range []string{
		`FILTER EXISTS { ?y ub:teacherOf ?c } }`,
		`FILTER NOT EXISTS { ?y ub:teacherOf ?c } }`,
		`FILTER(!EXISTS { ?y ub:teacherOf ?c }) }`,
		`FILTER(?y != ?x && EXISTS { ?y ub:teacherOf ?c }) }`,
	} {
		query := head + filter
		if _, err := sparql.Parse(query); err != nil {
			t.Fatalf("%s: %v", filter, err)
		}
		for _, kind := range []EngineKind{Lusail, LusailLADE, FedX, HiBISCuS, SPLENDID} {
			eng, err := fed.NewEngine(context.Background(), kind)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.QueryString(context.Background(), query)
			if err == nil || !strings.Contains(err.Error(), "EXISTS in federated queries is not supported") {
				t.Errorf("%s %s: error %v, want EXISTS not supported", kind, filter, err)
			}
			if res != nil && len(res.Rows) > 0 {
				t.Errorf("%s %s: %d rows with the error", kind, filter, len(res.Rows))
			}
		}
	}
}
