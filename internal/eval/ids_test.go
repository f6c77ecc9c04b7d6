package eval

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"lusail/internal/diskstore"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// backends returns the graph in memory and as a disk store with tiny
// blocks, so the id paths run on both.
func backends(t *testing.T, st *store.Store) map[string]store.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.lds")
	if err := diskstore.BuildFromGraph(path, st, diskstore.BuildOptions{DictBlockSize: 4, TripleBlockSize: 8}); err != nil {
		t.Fatal(err)
	}
	ds, err := diskstore.Open(path, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ds.Err(); err != nil {
			t.Errorf("disk store: %v", err)
		}
		ds.Close()
	})
	return map[string]store.Graph{"memory": st, "disk": ds}
}

func query(t *testing.T, g store.Graph, q string) *sparql.Results {
	t.Helper()
	res, err := New(g).QueryString(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// TestCountProbeMatchesRows checks the index-answered COUNT(*) against the
// rows the same pattern materializes, for every bind mask, on both
// backends; a constant the dictionary lacks counts 0.
func TestCountProbeMatchesRows(t *testing.T) {
	for name, g := range backends(t, testStore()) {
		for _, pat := range []string{
			`?s ?p ?o`,
			`?s <http://ex/advisor> ?o`,
			`<http://ex/kim> ?p ?o`,
			`?s ?p <http://ex/db>`,
			`<http://ex/kim> <http://ex/advisor> ?o`,
			`<http://ex/kim> ?p <http://ex/db>`,
			`?s <http://ex/teacherOf> <http://ex/db>`,
			`<http://ex/kim> <http://ex/advisor> <http://ex/tim>`,
			`?s <http://ex/nope> ?o`,
			`<http://ex/nobody> ?p ?o`,
			`?s ?p "absent literal"`,
		} {
			probe := sparql.MustParse(`SELECT (COUNT(*) AS ?c) WHERE { ` + pat + ` }`)
			if _, ok := New(g).countProbe(probe); !ok {
				t.Fatalf("%s: %s did not take the index path", name, pat)
			}
			rows := query(t, g, `SELECT * WHERE { `+pat+` }`)
			count := query(t, g, `SELECT (COUNT(*) AS ?c) WHERE { `+pat+` }`)
			if want := rdf.NewInteger(int64(len(rows.Rows))); !reflect.DeepEqual(count.Rows, [][]rdf.Term{{want}}) {
				t.Errorf("%s: COUNT over %s = %v, want %v", name, pat, count.Rows, want)
			}
		}
	}
}

// TestCountProbeRepeatedVariable: ?x p ?x counts only the triples whose
// subject equals their object, which the index cannot tell apart.
func TestCountProbeRepeatedVariable(t *testing.T) {
	st := store.NewFromTriples([]rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("a")},
		{S: iri("a"), P: iri("p"), O: iri("b")},
		{S: iri("b"), P: iri("p"), O: iri("c")},
	})
	q := `SELECT (COUNT(*) AS ?c) WHERE { ?x <http://ex/p> ?x }`
	if _, ok := New(st).countProbe(sparql.MustParse(q)); ok {
		t.Fatal("?x p ?x took the index path")
	}
	for name, g := range backends(t, st) {
		if got := query(t, g, q).Rows[0][0]; got != rdf.NewInteger(1) {
			t.Errorf("%s: COUNT(?x p ?x) = %v, want 1", name, got)
		}
	}
}

// TestTermsAbsentFromDictionary: VALUES cells, BIND results and constants
// the store does not hold get query-local ids, and must come back out as
// the terms they were, join and deduplicate like any other.
func TestTermsAbsentFromDictionary(t *testing.T) {
	for name, g := range backends(t, testStore()) {
		res := query(t, g, `SELECT ?s ?tag ?n WHERE {
			?s <http://ex/takesCourse> <http://ex/db> .
			VALUES ?tag { "fresh" <http://ex/new> }
			BIND(UCASE(STR(?s)) AS ?n)
		}`)
		got := map[[3]rdf.Term]bool{}
		for _, r := range res.Rows {
			got[[3]rdf.Term{r[0], r[1], r[2]}] = true
		}
		want := map[[3]rdf.Term]bool{
			{iri("kim"), rdf.NewLiteral("fresh"), rdf.NewLiteral("HTTP://EX/KIM")}:     true,
			{iri("kim"), rdf.NewIRI("http://ex/new"), rdf.NewLiteral("HTTP://EX/KIM")}: true,
		}
		if !reflect.DeepEqual(got, want) || len(res.Rows) != 2 {
			t.Errorf("%s: rows %v, want %v", name, res.Rows, want)
		}

		// The same absent term from a VALUES block and from a BIND gets
		// one id, so DISTINCT on ids folds them.
		res = query(t, g, `SELECT DISTINCT ?v WHERE {
			{ VALUES ?v { "zz" } } UNION { BIND("zz" AS ?v) } UNION { VALUES ?v { "zz" <http://ex/kim> } }
		}`)
		if len(res.Rows) != 2 {
			t.Errorf("%s: DISTINCT over absent and present terms = %v, want zz and kim", name, res.Rows)
		}

		// An absent VALUES term joined with a pattern matches nothing; a
		// present one matches.
		res = query(t, g, `SELECT ?s WHERE {
			VALUES ?c { <http://ex/db> <http://ex/nowhere> }
			?s <http://ex/takesCourse> ?c
		}`)
		if got := sortedValues(res, "s"); !reflect.DeepEqual(got, []string{"http://ex/kim"}) {
			t.Errorf("%s: VALUES join = %v", name, got)
		}
	}
}

// TestBatchedProbes: the engine's one-request-per-endpoint probe forms
// answer each question exactly as its single probe does, on both backends —
// a SELECT joining single-row COUNT sub-selects as each pattern's COUNT(*),
// absent terms and repeated variables included, and a SELECT of
// BIND(EXISTS { … } AS ?kN) cells as each check query's LIMIT 1, witnessed
// or empty, or as a lone pattern's ASK. Index-answered counts bypass the
// sub-select memo, which a batch would otherwise churn.
func TestBatchedProbes(t *testing.T) {
	st := testStore()
	st.Add(rdf.Triple{S: iri("kim"), P: iri("knows"), O: iri("kim")})
	pats := []string{
		`?s <http://ex/advisor> ?o`,
		`?s <http://ex/nope> ?o`,
		`<http://ex/nobody> ?p ?o`,
		`?s ?p "absent literal"`,
		`?x <http://ex/knows> ?x`,
		`?x <http://ex/advisor> ?x`,
		`?s <http://ex/teacherOf> <http://ex/db>`,
	}
	exists, counts := sparql.NewSelect(), sparql.NewSelect()
	for i, pat := range pats {
		tp := sparql.MustParse(`ASK { ` + pat + ` }`).Where.Elements[0]
		a, c := fmt.Sprintf("a%d", i), fmt.Sprintf("c%d", i)
		exists.Projection = append(exists.Projection, sparql.Projection{Var: a})
		exists.Where.Elements = append(exists.Where.Elements, sparql.Bind{Var: a,
			Expr: sparql.ExprExists{Group: &sparql.GroupPattern{Elements: []sparql.Element{tp}}}})
		counts.Projection = append(counts.Projection, sparql.Projection{Var: c})
		counts.Where.Elements = append(counts.Where.Elements, sparql.SubSelect{
			Query: sparql.MustParse(`SELECT (COUNT(*) AS ?` + c + `) WHERE { ` + pat + ` }`)})
	}
	// LADE's check queries (Figure 5), witnessed and empty, and their batch
	// form: one BIND(EXISTS { check }) cell each.
	checkTexts := []string{
		`SELECT ?y WHERE { ?x <http://ex/advisor> ?y FILTER NOT EXISTS { SELECT ?y WHERE { ?y <http://ex/teacherOf> ?y_chko } } } LIMIT 1`,
		`SELECT ?y WHERE { ?x <http://ex/advisor> ?y FILTER NOT EXISTS { SELECT ?y WHERE { ?y <http://ex/name> ?y_chko } } } LIMIT 1`,
		`SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Student> . ?x <http://ex/age> ?a FILTER NOT EXISTS { SELECT ?x WHERE { ?x <http://ex/takesCourse> ?x_chko } } } LIMIT 1`,
		`SELECT ?c WHERE { ?x <http://ex/takesCourse> ?c FILTER NOT EXISTS { SELECT ?c WHERE { ?c_chks <http://ex/teacherOf> ?c } } } LIMIT 1`,
		`SELECT ?x WHERE { ?x <http://ex/teacherOf> ?c FILTER NOT EXISTS { SELECT ?x WHERE { ?x <http://ex/name> ?x_chko } } } LIMIT 1`,
	}
	checks := sparql.NewSelect()
	for i, text := range checkTexts {
		k := fmt.Sprintf("k%d", i)
		checks.Projection = append(checks.Projection, sparql.Projection{Var: k})
		checks.Where.Elements = append(checks.Where.Elements, sparql.Bind{Var: k,
			Expr: sparql.ExprExists{Group: sparql.MustParse(text).Where}})
	}
	for name, g := range backends(t, st) {
		ck := query(t, g, checks.String())
		if len(ck.Rows) != 1 {
			t.Fatalf("%s: check batch returned %d solutions, want 1", name, len(ck.Rows))
		}
		witnessed := 0
		for i, text := range checkTexts {
			want := len(query(t, g, text).Rows) > 0
			if ck.Rows[0][i] != rdf.NewBoolean(want) {
				t.Errorf("%s: check cell %d = %v, its LIMIT 1 query says %v", name, i, ck.Rows[0][i], want)
			}
			if want {
				witnessed++
			}
		}
		if witnessed == 0 || witnessed == len(checkTexts) {
			t.Errorf("%s: %d of %d checks witnessed; fixture broken", name, witnessed, len(checkTexts))
		}

		ex := query(t, g, exists.String())
		ev := &evaluation{e: New(g)}
		cn, err := ev.query(counts)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ev.memo); n != 2 {
			// Only the two ?x p ?x sub-selects, which join, are memoized.
			t.Errorf("%s: %d sub-selects memoized, want 2", name, n)
		}
		if len(ex.Rows) != 1 || len(cn.Rows) != 1 {
			t.Fatalf("%s: batches returned %d and %d solutions, want 1 each", name, len(ex.Rows), len(cn.Rows))
		}
		for i, pat := range pats {
			if want := rdf.NewBoolean(query(t, g, `ASK { `+pat+` }`).Boolean); ex.Rows[0][i] != want {
				t.Errorf("%s: EXISTS cell of %s = %v, ASK says %v", name, pat, ex.Rows[0][i], want)
			}
			if want := query(t, g, `SELECT (COUNT(*) AS ?c) WHERE { `+pat+` }`).Rows[0][0]; cn.Rows[0][i] != want {
				t.Errorf("%s: COUNT cell of %s = %v, COUNT says %v", name, pat, cn.Rows[0][i], want)
			}
		}
	}
}

// TestUnboundStaysUnbound checks, on both backends, that a variable the
// WHERE clause never binds and one an OPTIONAL leaves unbound come back
// unbound through DISTINCT, ORDER BY and COUNT: op reads id 0 as unbound
// while store id 0 is a real term, so no unbound cell may decode as it.
func TestUnboundStaysUnbound(t *testing.T) {
	names := map[string]rdf.Term{
		"joy": rdf.NewLangLiteral("Joy", "en"),
		"tim": rdf.NewLiteral("Tim Smith"),
		"ben": {}, // no name: the OPTIONAL leaves ?u unbound
	}
	const never = `?s <http://ex/advisor> ?o`
	const optional = `?s <http://ex/advisor> ?o OPTIONAL { ?o <http://ex/name> ?u }`
	for name, g := range backends(t, testStore()) {
		if _, ok := g.Term(0); !ok {
			t.Fatalf("%s: store id 0 names no term; the fixture cannot tell it from unbound", name)
		}
		for _, q := range []string{
			`SELECT DISTINCT ?s ?nope WHERE { ` + never + ` }`,
			`SELECT ?s ?nope WHERE { ` + never + ` } ORDER BY ?nope ?s`,
			`SELECT DISTINCT ?nope WHERE { ` + never + ` }`,
		} {
			res := query(t, g, q)
			if res.Len() == 0 {
				t.Fatalf("%s: %s: no rows", name, q)
			}
			for _, v := range res.Column("nope") {
				if !v.IsZero() {
					t.Errorf("%s: %s: ?nope = %v, want unbound", name, q, v)
				}
			}
		}
		for _, q := range []string{
			`SELECT DISTINCT ?o ?u WHERE { ` + optional + ` }`,
			`SELECT ?o ?u WHERE { ` + optional + ` } ORDER BY ?u ?o`,
		} {
			res := query(t, g, q)
			if res.Len() != 3 {
				t.Fatalf("%s: %s: %d rows, want 3", name, q, res.Len())
			}
			for _, row := range res.Rows {
				if want := names[row[0].Value[len("http://ex/"):]]; row[1] != want {
					t.Errorf("%s: %s: ?u of %v = %v, want %v", name, q, row[0], row[1], want)
				}
			}
		}
		for q, want := range map[string]int64{
			`SELECT (COUNT(?nope) AS ?n) WHERE { ` + never + ` }`:                            0,
			`SELECT (COUNT(?u) AS ?n) WHERE { ` + optional + ` }`:                            2,
			`SELECT (COUNT(DISTINCT ?u) AS ?n) WHERE { ` + optional + ` }`:                   2,
			`SELECT ?s (COUNT(?nope) AS ?n) WHERE { ` + never + ` } GROUP BY ?s ORDER BY ?s`: 0,
		} {
			for _, row := range query(t, g, q).Rows {
				if n := row[len(row)-1]; n != rdf.NewInteger(want) {
					t.Errorf("%s: %s = %v, want %d", name, q, n, want)
				}
			}
		}
	}
}

// TestConcurrentEvaluations runs queries that fill the sub-select memo
// and the regex cache on one Evaluator from several goroutines at once, as
// an endpoint does; each must answer as it does alone (run with -race).
func TestConcurrentEvaluations(t *testing.T) {
	queries := []string{
		`SELECT ?y WHERE { ?x <http://ex/advisor> ?y FILTER NOT EXISTS { SELECT ?y WHERE { ?y <http://ex/name> ?n } } }`,
		`SELECT ?x WHERE { ?x <http://ex/takesCourse> ?c FILTER EXISTS { SELECT ?x WHERE { ?x <http://ex/age> ?a } } }`,
		`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n FILTER REGEX(?n, "^t", "i") }`,
	}
	for name, g := range backends(t, testStore()) {
		ev := New(g)
		want := make([]*sparql.Results, len(queries))
		for i, q := range queries {
			if want[i] = query(t, g, q); want[i].Len() == 0 {
				t.Fatalf("%s: %s answers nothing; fixture broken", name, q)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 20; n++ {
					i := (w + n) % len(queries)
					res, err := ev.QueryString(queries[i])
					if err != nil || !reflect.DeepEqual(res, want[i]) {
						t.Errorf("%s: %s concurrently = %v, %v; alone %v", name, queries[i], res, err, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestSubSelectIDSetParity: EXISTS { SELECT ?v WHERE { P } } over triple
// patterns only is answered from a set of ids; the same sub-select with a
// FILTER(true) beside P takes the set of terms. Both must agree on both
// backends, for values outside the store's dictionary, an unbound ?v,
// NOT EXISTS, and the BIND(EXISTS { … }) cells of Lusail's checks.
func TestSubSelectIDSetParity(t *testing.T) {
	for _, q := range []string{
		`SELECT ?v WHERE { VALUES ?v { <http://ex/nowhere> <http://ex/joy> "24" 24 } FILTER EXISTS { SELECT ?v WHERE { %s } } }`,
		`SELECT ?v WHERE { VALUES ?v { <http://ex/nowhere> <http://ex/joy> "24" 24 } FILTER NOT EXISTS { SELECT ?v WHERE { %s } } }`,
		`SELECT ?s ?v WHERE { ?s <http://ex/takesCourse> ?c OPTIONAL { ?s <http://ex/advisor> ?v } FILTER NOT EXISTS { SELECT ?v WHERE { %s } } }`,
		`SELECT ?s ?v WHERE { ?s <http://ex/takesCourse> ?c OPTIONAL { ?s <http://ex/name> ?v } FILTER EXISTS { SELECT ?v WHERE { %s } } }`,
		`SELECT ?k0 ?k1 WHERE { BIND(EXISTS { ?x <http://ex/advisor> ?v FILTER NOT EXISTS { SELECT ?v WHERE { %[1]s } } } AS ?k0)
			BIND(EXISTS { ?x <http://ex/takesCourse> ?v FILTER NOT EXISTS { SELECT ?v WHERE { %[1]s } } } AS ?k1) }`,
		`SELECT ?s ?v WHERE { ?s <http://ex/age> ?v FILTER EXISTS { SELECT ?v WHERE { ?x <http://ex/age> ?v . %s } } }`,
	} {
		ids := sparql.MustParse(fmt.Sprintf(q, `?v <http://ex/teacherOf> ?c`))
		terms := sparql.MustParse(fmt.Sprintf(q, `?v <http://ex/teacherOf> ?c FILTER(true)`))
		for name, g := range backends(t, testStore()) {
			want, err := New(g).Query(terms)
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(g).Query(ids)
			if err != nil {
				t.Fatal(err)
			}
			want.Sort()
			got.Sort()
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("%s: %s\nid set %v\nterm set %v", name, q, got.Rows, want.Rows)
			}
		}
	}
	sub := func(q string) *sparql.Query {
		return sparql.MustParse(`SELECT ?v WHERE { ` + q + ` }`)
	}
	for q, want := range map[string]bool{
		`?v <http://ex/p> ?c`:                       true,
		`?v <http://ex/p> ?c FILTER(true)`:          false,
		`?v <http://ex/p> ?c OPTIONAL { ?v ?q ?w }`: false,
	} {
		if got := matchesOnly(sub(q)); got != want {
			t.Errorf("matchesOnly(%s) = %v, want %v", q, got, want)
		}
	}
	if matchesOnly(sparql.MustParse(`SELECT ?v WHERE { ?v <http://ex/p> ?c } LIMIT 5`)) {
		t.Error("a LIMIT sub-select took the id path")
	}
}
