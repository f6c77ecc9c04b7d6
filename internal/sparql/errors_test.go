package sparql

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestLineCol(t *testing.T) {
	src := "ab\ncd\n\nxyz"
	cases := []struct {
		pos       int
		line, col int
	}{
		{0, 1, 1},
		{1, 1, 2},
		{2, 1, 3},  // the newline itself, still line 1
		{3, 2, 1},  // 'c'
		{4, 2, 2},  // 'd'
		{6, 3, 1},  // empty line
		{7, 4, 1},  // 'x'
		{9, 4, 3},  // 'z'
		{10, 4, 4}, // one past end: valid anchor for EOF errors
		{11, 0, 0}, // out of range
		{-1, 0, 0},
	}
	for _, c := range cases {
		line, col := LineCol(src, c.pos)
		if line != c.line || col != c.col {
			t.Errorf("LineCol(%d) = %d:%d, want %d:%d", c.pos, line, col, c.line, c.col)
		}
	}
}

// TestParseErrorPositions pins the satellite contract: every parse failure
// is a *ParseError carrying the byte offset, 1-based line/column, and the
// offending token's text.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name      string
		query     string
		line, col int
		token     string // "" means end-of-input anchor
		msgPart   string
	}{
		{
			name:  "lexer unexpected character",
			query: "SELECT ?s WHERE { ?s ^ ?o }",
			line:  1, col: 22, token: "^",
			msgPart: "unexpected character",
		},
		{
			name:  "lexer unterminated string",
			query: "SELECT ?s WHERE {\n  ?s <http://p> \"oops\n}",
			line:  2, col: 17, token: "\"oops",
			msgPart: "unterminated string",
		},
		{
			name:  "parser bad term",
			query: "SELECT ?s WHERE { ?s <http://p> } LIMIT 5",
			line:  1, col: 33, token: "}",
			msgPart: "expected term or variable",
		},
		{
			name:  "undeclared prefix points at the pname",
			query: "SELECT ?s WHERE {\n  ?s ub:advisor ?o\n}",
			line:  2, col: 6, token: "ub:advisor",
			msgPart: `undeclared prefix "ub"`,
		},
		{
			name:  "filter expression error",
			query: "SELECT ?s WHERE { ?s <http://p> ?o . FILTER(?o > ) }",
			line:  1, col: 50, token: ")",
			msgPart: "unexpected token",
		},
		{
			// The lexer uppercases bare words when tokenizing keywords, so the
			// reported token text for non-keywords is the normalized spelling.
			name:  "bad LIMIT",
			query: "SELECT ?s WHERE { ?s <http://p> ?o } LIMIT nope",
			line:  1, col: 44, token: "NOPE",
			msgPart: "invalid LIMIT",
		},
		{
			name:  "unterminated group anchors at end of input",
			query: "SELECT ?s WHERE { ?s <http://p> ?o .",
			line:  1, col: 37, token: "",
			msgPart: "unexpected end of query",
		},
		{
			name:  "trailing token",
			query: "ASK WHERE { ?s <http://p> ?o }\ngarbage",
			line:  2, col: 1, token: "GARBAGE",
			msgPart: "unexpected trailing token",
		},
		{
			name:  "VALUES arity mismatch points at the row",
			query: "SELECT ?s WHERE { VALUES (?a ?b) { (<http://x>) } }",
			line:  1, col: 36, token: "(",
			msgPart: "VALUES row has 1 terms, want 2",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.query)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", c.query)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, want *ParseError: %v", err, err)
			}
			if pe.Line != c.line || pe.Col != c.col {
				t.Errorf("position = %d:%d, want %d:%d (err: %v)", pe.Line, pe.Col, c.line, c.col, pe)
			}
			if pe.Token != c.token {
				t.Errorf("token = %q, want %q", pe.Token, c.token)
			}
			if !strings.Contains(pe.Msg, c.msgPart) {
				t.Errorf("message %q does not contain %q", pe.Msg, c.msgPart)
			}
			if pe.Pos < 0 || pe.Pos > len(c.query) {
				t.Errorf("byte offset %d out of range", pe.Pos)
			}
			if wl, wc := LineCol(c.query, pe.Pos); wl != pe.Line || wc != pe.Col {
				t.Errorf("Line/Col %d:%d inconsistent with Pos %d (computes to %d:%d)", pe.Line, pe.Col, pe.Pos, wl, wc)
			}
			if !strings.Contains(err.Error(), "sparql:") {
				t.Errorf("Error() lost the sparql prefix: %q", err.Error())
			}
		})
	}
}

// TestAllParseErrorsCarryPositions sweeps a corpus of malformed inputs and
// asserts no error path loses position context (the pre-fix failure mode).
func TestAllParseErrorsCarryPositions(t *testing.T) {
	bad := []string{
		"",
		"FOO",
		"SELECT",
		"SELECT WHERE { ?s ?p ?o }",
		"SELECT ?s WHERE",
		"SELECT ?s WHERE { ?s ?p }",
		"SELECT ?s WHERE { ?s ?p ?o ",
		"SELECT ?s WHERE { ?s ?p ?o } ORDER BY",
		"SELECT ?s WHERE { ?s ?p ?o } GROUP BY",
		"SELECT ?s WHERE { ?s ?p ?o } OFFSET -1",
		"SELECT (COUNT ?s AS ?c) WHERE { ?s ?p ?o }",
		"SELECT (SUM(*) AS ?c) WHERE { ?s ?p ?o }",
		"SELECT ?s WHERE { FILTER }",
		"SELECT ?s WHERE { BIND(1 AS 2) }",
		"SELECT ?s WHERE { VALUES }",
		"SELECT ?s WHERE { ?s \"lit\" ?o }",
		"SELECT ?s WHERE { ?s 4 ?o }",
		"SELECT ?s WHERE { a ?p ?o }",
		"PREFIX SELECT ?s WHERE { ?s ?p ?o }",
		"PREFIX x: SELECT ?s WHERE { ?s ?p ?o }",
		"CONSTRUCT { } WHERE { ?s ?p ?o }",
		"CONSTRUCT { ?s ?p ?o  WHERE { ?s ?p ?o }",
		"SELECT ?s WHERE { ?s <http://p> \"x\"@ }",
		"SELECT ?s WHERE { ?s <http://p> ?o . FILTER(?o = \"\\q\") }",
		"SELECT ?s WHERE { ?s <http://p> ?",
	}
	for _, query := range bad {
		_, err := Parse(query)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", query)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q): error is %T, want *ParseError: %v", query, err, err)
			continue
		}
		if pe.Pos < 0 || pe.Line < 1 || pe.Col < 1 {
			t.Errorf("Parse(%q): lost position context: pos=%d line=%d col=%d msg=%q",
				query, pe.Pos, pe.Line, pe.Col, pe.Msg)
		}
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, sev := range []Severity{SevInfo, SevWarning, SevError} {
		data, err := json.Marshal(sev)
		if err != nil {
			t.Fatalf("marshal %v: %v", sev, err)
		}
		if want := `"` + sev.String() + `"`; string(data) != want {
			t.Errorf("marshal %v = %s, want %s", sev, data, want)
		}
		var back Severity
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != sev {
			t.Errorf("round trip %v -> %v", sev, back)
		}
	}
	var s Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &s); err == nil {
		t.Error("unknown severity accepted")
	}
}

func TestSemaDiagnosticString(t *testing.T) {
	d := SemaDiagnostic{Check: "unboundvar", Severity: SevError, Pos: 41, Line: 3, Col: 9,
		Message: "?x is never bound"}
	if got, want := d.String(), "3:9: unboundvar: error: ?x is never bound"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	d.Line, d.Col = 0, 0
	if got := d.String(); !strings.Contains(got, "offset 41") {
		t.Errorf("offset form = %q", got)
	}
	e := &SemaError{Diagnostics: []SemaDiagnostic{d, d}}
	if got := e.Error(); !strings.Contains(got, "and 1 more") {
		t.Errorf("SemaError.Error() = %q", got)
	}
}

func TestStripPositions(t *testing.T) {
	q := MustParse(`SELECT ?s (COUNT(?o) AS ?c) WHERE {
		?s <http://p> ?o .
		OPTIONAL { ?s <http://q> ?z . FILTER(?z > 3) }
		{ ?s <http://r> ?w } UNION { ?s <http://t> ?w }
		BIND(?o AS ?b)
		VALUES ?v { <http://x> }
		FILTER NOT EXISTS { ?s <http://u> ?n }
	} GROUP BY ?s ORDER BY DESC(?s) LIMIT 5`)
	if q.Where.Pos == 0 {
		t.Fatal("parser did not set group position")
	}
	StripPositions(q)
	var walk func(g *GroupPattern)
	check := func(name string, pos int) {
		if pos != 0 {
			t.Errorf("%s position not stripped: %d", name, pos)
		}
	}
	var walkExpr func(x Expr)
	walkExpr = func(x Expr) {
		switch e := x.(type) {
		case ExprVar:
			check("ExprVar", e.Pos)
		case ExprBinary:
			walkExpr(e.L)
			walkExpr(e.R)
		case ExprUnary:
			walkExpr(e.X)
		case ExprCall:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case ExprExists:
			walk(e.Group)
		}
	}
	walk = func(g *GroupPattern) {
		check("GroupPattern", g.Pos)
		for _, el := range g.Elements {
			switch e := el.(type) {
			case TriplePattern:
				check("TriplePattern", e.Pos)
			case Filter:
				check("Filter", e.Pos)
				walkExpr(e.Expr)
			case Optional:
				check("Optional", e.Pos)
				walk(e.Group)
			case Union:
				check("Union", e.Pos)
				for _, b := range e.Branches {
					walk(b)
				}
			case SubSelect:
				check("SubSelect", e.Pos)
			case InlineData:
				check("InlineData", e.Pos)
			case Bind:
				check("Bind", e.Pos)
				walkExpr(e.Expr)
			}
		}
	}
	walk(q.Where)
	for _, pr := range q.Projection {
		check("Projection", pr.Pos)
	}
	for _, oc := range q.OrderBy {
		check("OrderCond", oc.Pos)
	}
}
