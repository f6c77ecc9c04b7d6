package sparql

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lusail/internal/rdf"
)

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse(`SELECT ?s ?o WHERE { ?s <http://p> ?o . }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Form != SelectForm {
		t.Error("expected SELECT form")
	}
	if got := q.ProjectedVars(); !reflect.DeepEqual(got, []string{"s", "o"}) {
		t.Errorf("ProjectedVars = %v", got)
	}
	tps := q.Where.TriplePatterns()
	if len(tps) != 1 {
		t.Fatalf("got %d triple patterns", len(tps))
	}
	want := TriplePattern{S: Var("s"), P: IRI("http://p"), O: Var("o")}
	tps[0].Pos = 0
	if tps[0] != want {
		t.Errorf("pattern = %+v, want %+v", tps[0], want)
	}
}

func TestParsePrefixes(t *testing.T) {
	q := MustParse(`
		PREFIX ub: <http://lubm.org/u#>
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?s WHERE { ?s rdf:type ub:GraduateStudent . ?s ub:advisor ?p }`)
	tps := q.Where.TriplePatterns()
	if len(tps) != 2 {
		t.Fatalf("got %d patterns", len(tps))
	}
	if tps[0].P.Term.Value != rdf.RDFType {
		t.Errorf("rdf:type expanded to %q", tps[0].P.Term.Value)
	}
	if tps[0].O.Term.Value != "http://lubm.org/u#GraduateStudent" {
		t.Errorf("ub:GraduateStudent expanded to %q", tps[0].O.Term.Value)
	}
}

func TestParseAKeyword(t *testing.T) {
	q := MustParse(`SELECT ?s WHERE { ?s a <http://T> }`)
	tp := q.Where.TriplePatterns()[0]
	if tp.P.Term.Value != rdf.RDFType {
		t.Errorf("'a' should expand to rdf:type, got %q", tp.P.Term.Value)
	}
}

func TestParseSemicolonCommaShorthand(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?s <http://p> ?a , ?b ; <http://q> ?c . }`)
	tps := q.Where.TriplePatterns()
	if len(tps) != 3 {
		t.Fatalf("got %d patterns, want 3", len(tps))
	}
	if tps[0].O.Var != "a" || tps[1].O.Var != "b" || tps[2].O.Var != "c" {
		t.Errorf("patterns = %v", tps)
	}
	if tps[2].P.Term.Value != "http://q" {
		t.Errorf("third predicate = %v", tps[2].P)
	}
}

func TestParseLiterals(t *testing.T) {
	q := MustParse(`SELECT ?s WHERE {
		?s <http://p1> "plain" .
		?s <http://p2> "tagged"@en .
		?s <http://p3> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
		?s <http://p4> 42 .
		?s <http://p5> 3.5 .
		?s <http://p6> true .
	}`)
	tps := q.Where.TriplePatterns()
	wants := []rdf.Term{
		rdf.NewLiteral("plain"),
		rdf.NewLangLiteral("tagged", "en"),
		rdf.NewTypedLiteral("5", rdf.XSDInteger),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewTypedLiteral("3.5", rdf.XSDDouble),
		rdf.NewBoolean(true),
	}
	for i, w := range wants {
		if tps[i].O.Term != w {
			t.Errorf("pattern %d object = %v, want %v", i, tps[i].O.Term, w)
		}
	}
}

func TestParseFilterComparison(t *testing.T) {
	q := MustParse(`SELECT ?s WHERE { ?s <http://p> ?v . FILTER(?v > 5 && ?v <= 10) }`)
	var f Filter
	for _, e := range q.Where.Elements {
		if ff, ok := e.(Filter); ok {
			f = ff
		}
	}
	bin, ok := f.Expr.(ExprBinary)
	if !ok || bin.Op != "&&" {
		t.Fatalf("filter = %#v", f.Expr)
	}
	l := bin.L.(ExprBinary)
	if l.Op != ">" {
		t.Errorf("left op = %q", l.Op)
	}
	r := bin.R.(ExprBinary)
	if r.Op != "<=" {
		t.Errorf("right op = %q", r.Op)
	}
}

func TestParseFilterNotExistsWithSubselect(t *testing.T) {
	// The exact shape of Lusail's GJV check query (paper Figure 5).
	q := MustParse(`
		SELECT ?P WHERE {
			?S <http://pi> ?P .
			FILTER NOT EXISTS { SELECT ?P WHERE { ?P <http://pj> ?C . } } .
		} LIMIT 1`)
	if q.Limit != 1 {
		t.Errorf("Limit = %d", q.Limit)
	}
	var ex ExprExists
	found := false
	for _, e := range q.Where.Elements {
		if f, ok := e.(Filter); ok {
			ex, found = f.Expr.(ExprExists)
		}
	}
	if !found || !ex.Not {
		t.Fatalf("expected NOT EXISTS filter, got %#v", q.Where.Elements)
	}
	if len(ex.Group.Elements) != 1 {
		t.Fatalf("exists group has %d elements", len(ex.Group.Elements))
	}
	sub, ok := ex.Group.Elements[0].(SubSelect)
	if !ok {
		t.Fatalf("expected sub-select, got %#v", ex.Group.Elements[0])
	}
	if got := sub.Query.ProjectedVars(); !reflect.DeepEqual(got, []string{"P"}) {
		t.Errorf("subselect projects %v", got)
	}
}

func TestParseOptionalUnion(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?s <http://p> ?o .
		OPTIONAL { ?s <http://q> ?x }
		{ ?s <http://r> ?y } UNION { ?s <http://t> ?y }
	}`)
	var haveOpt, haveUnion bool
	for _, e := range q.Where.Elements {
		switch e := e.(type) {
		case Optional:
			haveOpt = true
			if len(e.Group.TriplePatterns()) != 1 {
				t.Error("optional group wrong")
			}
		case Union:
			haveUnion = true
			if len(e.Branches) != 2 {
				t.Errorf("union branches = %d", len(e.Branches))
			}
		}
	}
	if !haveOpt || !haveUnion {
		t.Errorf("optional=%v union=%v", haveOpt, haveUnion)
	}
}

func TestParseValues(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?s <http://p> ?o .
		VALUES (?s ?o) { (<http://a> "x") (<http://b> UNDEF) }
	}`)
	var d InlineData
	for _, e := range q.Where.Elements {
		if v, ok := e.(InlineData); ok {
			d = v
		}
	}
	if !reflect.DeepEqual(d.Vars, []string{"s", "o"}) {
		t.Fatalf("values vars = %v", d.Vars)
	}
	if len(d.Rows) != 2 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	if !d.Rows[1][1].IsZero() {
		t.Error("UNDEF should parse to zero term")
	}
}

func TestParseValuesSingleVarForm(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?s <http://p> ?o . VALUES ?s { <http://a> <http://b> } }`)
	var d InlineData
	for _, e := range q.Where.Elements {
		if v, ok := e.(InlineData); ok {
			d = v
		}
	}
	if len(d.Rows) != 2 || len(d.Vars) != 1 {
		t.Errorf("single-var VALUES parsed as %+v", d)
	}
}

func TestParseCountAggregate(t *testing.T) {
	q := MustParse(`SELECT (COUNT(DISTINCT ?s) AS ?c) WHERE { ?s <http://p> ?o }`)
	if len(q.Projection) != 1 || q.Projection[0].Agg == nil {
		t.Fatalf("projection = %+v", q.Projection)
	}
	agg := q.Projection[0].Agg
	if agg.Func != "COUNT" || !agg.Distinct || agg.Var != "s" || q.Projection[0].Var != "c" {
		t.Errorf("aggregate = %+v", agg)
	}
}

func TestParseAsk(t *testing.T) {
	q := MustParse(`ASK { ?s <http://p> <http://o> }`)
	if q.Form != AskForm {
		t.Error("expected ASK form")
	}
}

func TestParseOrderLimitOffset(t *testing.T) {
	q := MustParse(`SELECT ?s WHERE { ?s <http://p> ?o } ORDER BY DESC(?s) ?o LIMIT 10 OFFSET 5`)
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[0].Var != "s" || q.OrderBy[1].Var != "o" {
		t.Errorf("order by = %+v", q.OrderBy)
	}
	if q.Limit != 10 || q.Offset != 5 {
		t.Errorf("limit/offset = %d/%d", q.Limit, q.Offset)
	}
}

func TestParseBind(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?s <http://p> ?o . BIND(STR(?o) AS ?str) }`)
	var b Bind
	ok := false
	for _, e := range q.Where.Elements {
		if bb, isB := e.(Bind); isB {
			b, ok = bb, true
		}
	}
	if !ok || b.Var != "str" {
		t.Fatalf("bind = %+v ok=%v", b, ok)
	}
	if c, isCall := b.Expr.(ExprCall); !isCall || c.Func != "STR" {
		t.Errorf("bind expr = %#v", b.Expr)
	}
}

func TestParseRegexFilter(t *testing.T) {
	q := MustParse(`SELECT ?s WHERE { ?s <http://p> ?o . FILTER REGEX(?o, "^abc", "i") }`)
	found := false
	for _, e := range q.Where.Elements {
		if f, ok := e.(Filter); ok {
			if c, ok := f.Expr.(ExprCall); ok && c.Func == "REGEX" && len(c.Args) == 3 {
				found = true
			}
		}
	}
	if !found {
		t.Error("REGEX filter not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ?s`,
		`SELECT ?s WHERE { ?s <http://p> }`,
		`SELECT ?s WHERE { ?s "lit" ?o }`,        // literal predicate
		`SELECT ?s WHERE { ?s ub:x ?o }`,         // undeclared prefix
		`SELECT ?s WHERE { ?s <http://p> ?o `,    // unterminated group
		`SELECT ?s WHERE { ?s <http://p> ?o } }`, // trailing token
		`SELECT (COUNT(?s) ?c) WHERE { ?s <http://p> ?o }`, // missing AS
		`SELECT ?s WHERE { ?s <http://p> ?o } LIMIT -1`,
		`SELECT ?s WHERE { VALUES (?a ?b) { (<http://x>) } }`, // arity mismatch
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseVarDollarSigil(t *testing.T) {
	q := MustParse(`SELECT $s WHERE { $s <http://p> ?o }`)
	if got := q.ProjectedVars(); !reflect.DeepEqual(got, []string{"s"}) {
		t.Errorf("vars = %v", got)
	}
}

func TestParseComments(t *testing.T) {
	q := MustParse("SELECT ?s WHERE {\n # a comment\n ?s <http://p> ?o\n}")
	if len(q.Where.TriplePatterns()) != 1 {
		t.Error("comment handling broke pattern parse")
	}
}

// Round-trip: parse → serialize → parse must preserve structure.
func TestSerializeRoundTrip(t *testing.T) {
	queries := []string{
		`SELECT ?s ?o WHERE { ?s <http://p> ?o . }`,
		`SELECT DISTINCT * WHERE { ?s <http://p> ?o . FILTER(?o > 5) . }`,
		`ASK WHERE { <http://a> <http://p> ?x . }`,
		`SELECT (COUNT(?s) AS ?c) WHERE { ?s <http://p> ?o . }`,
		`SELECT ?s WHERE { ?s <http://p> ?o . OPTIONAL { ?s <http://q> ?z . } . } LIMIT 3`,
		`SELECT ?s WHERE { { ?s <http://p> ?o . } UNION { ?s <http://q> ?o . } . }`,
		`SELECT ?P WHERE { ?S <http://pi> ?P . FILTER NOT EXISTS { SELECT ?P WHERE { ?P <http://pj> ?C . } . } . } LIMIT 1`,
		`SELECT ?s WHERE { ?s <http://p> ?o . VALUES (?s) { (<http://a>) (UNDEF) } . }`,
		`SELECT ?s WHERE { ?s <http://p> ?o . } ORDER BY DESC(?s) LIMIT 10 OFFSET 2`,
		`SELECT ?s WHERE { ?s <http://p> "lit"@en . FILTER REGEX(STR(?s), "x") . }`,
	}
	for _, in := range queries {
		q1, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		out := q1.String()
		q2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", out, in, err)
		}
		// Compare ignoring the Prefixes map (serialization expands them) and
		// source positions (serialization changes the spelling).
		q1.Prefixes, q2.Prefixes = nil, nil
		StripPositions(q1)
		StripPositions(q2)
		if !reflect.DeepEqual(q1, q2) {
			t.Errorf("round trip mismatch:\n in: %s\nout: %s\n q1: %#v\n q2: %#v", in, out, q1, q2)
		}
	}
}

func TestGroupPatternVars(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?a <http://p> ?b .
		OPTIONAL { ?b <http://q> ?c }
		{ ?a <http://r> ?d } UNION { ?a <http://s> ?d }
		VALUES ?e { <http://x> }
	}`)
	got := q.Where.Vars()
	want := []string{"a", "b", "c", "d", "e"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Vars() = %v, want %v", got, want)
	}
}

func TestLexerOperatorVsIRI(t *testing.T) {
	// '<' must lex as operator when not an IRI.
	q := MustParse(`SELECT ?v WHERE { ?s <http://p> ?v . FILTER(?v < 10 || ?v >= 20) }`)
	if len(q.Where.Elements) != 2 {
		t.Fatalf("elements = %d", len(q.Where.Elements))
	}
	if !strings.Contains(q.String(), "<") {
		t.Error("serialized query lost comparison")
	}
}

func TestWriteCSV(t *testing.T) {
	res := NewResults([]string{"a", "b"})
	res.Rows = [][]rdf.Term{
		{rdf.NewIRI("http://x"), rdf.NewLiteral("v,with comma")},
		{rdf.NewBlank("b0"), rdf.Term{}},
	}
	var buf strings.Builder
	if err := res.Write(&buf, FormatCSV); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := "a,b\nhttp://x,\"v,with comma\"\n_:b0,\n"
	if out != want {
		t.Errorf("csv = %q, want %q", out, want)
	}

	var bb strings.Builder
	if err := BoolResults(true).Write(&bb, FormatCSV); err != nil {
		t.Fatal(err)
	}
	if bb.String() != "boolean\ntrue\n" {
		t.Errorf("bool csv = %q", bb.String())
	}
}

func TestWriteTSV(t *testing.T) {
	res := NewResults([]string{"a"})
	res.Rows = [][]rdf.Term{{rdf.NewLangLiteral("hi", "en")}}
	var buf strings.Builder
	if err := res.Write(&buf, FormatTSV); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "?a\n\"hi\"@en\n" {
		t.Errorf("tsv = %q", buf.String())
	}
}

// Property: a randomly generated query AST serializes to text that parses
// back to the same AST (modulo the Prefixes map).
func TestRandomQueryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		q := randomQuery(rng, 0)
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("trial %d: generated query does not parse: %v\n%s", trial, err, text)
		}
		q.Prefixes, back.Prefixes = nil, nil
		normalizeQuery(q)
		normalizeQuery(back)
		if !reflect.DeepEqual(q, back) {
			t.Fatalf("trial %d: round trip mismatch\ntext: %s\n q: %#v\n back: %#v", trial, text, q, back)
		}
	}
}

// normalizeQuery clears fields the serializer canonicalizes, including
// source positions, which depend on the concrete spelling.
func normalizeQuery(q *Query) {
	if len(q.Projection) == 0 {
		q.Star = true
	}
	StripPositions(q)
}

func randomQuery(rng *rand.Rand, depth int) *Query {
	q := NewSelect()
	if rng.Intn(4) == 0 && depth == 0 {
		q.Form = AskForm
	} else {
		switch rng.Intn(3) {
		case 0:
			q.Star = true
		case 1:
			q.Projection = []Projection{{Var: "v0"}}
		default:
			q.Projection = []Projection{{Var: "c", Agg: &Aggregate{Func: "COUNT", Distinct: rng.Intn(2) == 0, Var: "v0"}}}
		}
		if rng.Intn(3) == 0 {
			q.Distinct = true
		}
	}
	nPat := 1 + rng.Intn(3)
	for i := 0; i < nPat; i++ {
		q.Where.Elements = append(q.Where.Elements, randomPattern(rng))
	}
	if rng.Intn(3) == 0 {
		q.Where.Elements = append(q.Where.Elements, Filter{Expr: randomExpr(rng, 0)})
	}
	if rng.Intn(4) == 0 && depth == 0 {
		inner := &GroupPattern{Elements: []Element{randomPattern(rng)}}
		q.Where.Elements = append(q.Where.Elements, Optional{Group: inner})
	}
	if rng.Intn(4) == 0 && depth == 0 {
		q.Where.Elements = append(q.Where.Elements, Union{Branches: []*GroupPattern{
			{Elements: []Element{randomPattern(rng)}},
			{Elements: []Element{randomPattern(rng)}},
		}})
	}
	if rng.Intn(4) == 0 {
		q.Where.Elements = append(q.Where.Elements, InlineData{
			Vars: []string{"v0"},
			Rows: [][]rdf.Term{{rdf.NewIRI("http://x/1")}, {rdf.Term{}}},
		})
	}
	if q.Form == SelectForm {
		if len(q.Projection) == 1 && q.Projection[0].Agg != nil && rng.Intn(2) == 0 {
			q.Projection = append([]Projection{{Var: "v0"}}, q.Projection...)
			q.GroupBy = []string{"v0"}
		}
		if rng.Intn(3) == 0 && len(q.GroupBy) == 0 && q.Projection == nil {
			q.OrderBy = []OrderCond{{Var: "v0", Desc: rng.Intn(2) == 0}}
		}
		if rng.Intn(3) == 0 {
			q.Limit = rng.Intn(100)
		}
		if rng.Intn(4) == 0 {
			q.Offset = 1 + rng.Intn(10)
		}
	}
	return q
}

func randomPattern(rng *rand.Rand) TriplePattern {
	pos := func(canLiteral bool) PatternTerm {
		switch rng.Intn(4) {
		case 0:
			return Var(fmt.Sprintf("v%d", rng.Intn(3)))
		case 1:
			return IRI(fmt.Sprintf("http://x/%d", rng.Intn(5)))
		case 2:
			if canLiteral {
				return Const(rdf.NewLiteral(fmt.Sprintf("lit%d", rng.Intn(5))))
			}
			return Var("s")
		default:
			if canLiteral {
				return Const(rdf.NewTypedLiteral("5", rdf.XSDInteger))
			}
			return IRI("http://x/c")
		}
	}
	return TriplePattern{S: pos(false), P: pos(false), O: pos(true)}
}

func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth > 2 {
		return ExprVar{Name: "v0"}
	}
	switch rng.Intn(6) {
	case 0:
		return ExprVar{Name: fmt.Sprintf("v%d", rng.Intn(3))}
	case 1:
		return ExprTerm{Term: rdf.NewInteger(int64(rng.Intn(50)))}
	case 2:
		ops := []string{"=", "!=", "<", ">", "<=", ">=", "&&", "||", "+", "-", "*", "/"}
		return ExprBinary{Op: ops[rng.Intn(len(ops))], L: randomExpr(rng, depth+1), R: randomExpr(rng, depth+1)}
	case 3:
		return ExprUnary{Op: "!", X: randomExpr(rng, depth+1)}
	case 4:
		return ExprCall{Func: "CONTAINS", Args: []Expr{
			ExprCall{Func: "STR", Args: []Expr{ExprVar{Name: "v0"}}},
			ExprTerm{Term: rdf.NewLiteral("x")},
		}}
	default:
		return ExprExists{Not: rng.Intn(2) == 0, Group: &GroupPattern{Elements: []Element{randomPattern(rng)}}}
	}
}

func TestXMLResultsRoundTrip(t *testing.T) {
	res := NewResults([]string{"x", "y"})
	res.Rows = [][]rdf.Term{
		{rdf.NewIRI("http://a"), rdf.NewLangLiteral("hallo", "de")},
		{rdf.NewBlank("b0"), rdf.NewTypedLiteral("7", rdf.XSDInteger)},
		{rdf.NewLiteral("plain"), rdf.Term{}}, // unbound y
	}
	var buf strings.Builder
	if err := res.Write(&buf, FormatXML); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sparql-results#") {
		t.Errorf("missing namespace: %s", buf.String())
	}
	back, err := ParseResultsXML([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	res.Sort()
	back.Sort()
	if !reflect.DeepEqual(res.Vars, back.Vars) || !reflect.DeepEqual(res.Rows, back.Rows) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", back.Rows, res.Rows)
	}
}

func TestXMLBooleanRoundTrip(t *testing.T) {
	var buf strings.Builder
	if err := BoolResults(true).Write(&buf, FormatXML); err != nil {
		t.Fatal(err)
	}
	back, err := ParseResultsXML([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsBoolean || !back.Boolean {
		t.Errorf("boolean round trip = %+v", back)
	}
}

func TestPatternKey(t *testing.T) {
	a := TriplePattern{S: Var("s"), P: IRI("http://p"), O: Var("o")}
	b := TriplePattern{S: Var("x"), P: IRI("http://p"), O: Var("y")}
	if PatternKey(nil, a) != PatternKey(nil, b) {
		t.Error("alpha-equivalent patterns should share a key")
	}
	if got := PatternKey(nil, a); got != "?v0 <http://p> ?v1" {
		t.Errorf("key = %q", got)
	}
	// Self-join structure must be preserved.
	c := TriplePattern{S: Var("s"), P: IRI("http://p"), O: Var("s")}
	if PatternKey(nil, a) == PatternKey(nil, c) {
		t.Error("self-join pattern should get a different key")
	}
	// A reserved name keeps its place, and names are shared across the
	// patterns: a subject-only pair differs from a subject/object pair.
	subj := PatternKey(map[string]string{"s": "?JV"}, a, TriplePattern{S: Var("s"), P: IRI("http://q"), O: Var("z")})
	if subj != "?JV <http://p> ?v1|?JV <http://q> ?v2" {
		t.Errorf("reserved key = %q", subj)
	}
	subjObj := PatternKey(map[string]string{"s": "?JV"}, a, TriplePattern{S: Var("z"), P: IRI("http://q"), O: Var("s")})
	if subj == subjObj {
		t.Error("join variable positions must be part of the key")
	}
}
