package rdf

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestParseNTriplesBasic(t *testing.T) {
	doc := `
# comment
<http://s> <http://p> <http://o> .
<http://s> <http://p> "plain" .
<http://s> <http://p> "hi"@en .
<http://s> <http://p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://p> "x" .
`
	triples, err := ParseNTriples(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	want := []Triple{
		NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewIRI("http://o")),
		NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("plain")),
		NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLangLiteral("hi", "en")),
		NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewTypedLiteral("5", XSDInteger)),
		NewTriple(NewBlank("b0"), NewIRI("http://p"), NewLiteral("x")),
	}
	if !reflect.DeepEqual(triples, want) {
		t.Errorf("parsed %v, want %v", triples, want)
	}
}

func TestParseNTriplesEscapes(t *testing.T) {
	line := `<http://s> <http://p> "a\"b\\c\nd\te" .`
	tr, err := ParseTripleLine(line)
	if err != nil {
		t.Fatalf("ParseTripleLine: %v", err)
	}
	if tr.O.Value != "a\"b\\c\nd\te" {
		t.Errorf("unescaped value = %q", tr.O.Value)
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	bad := []string{
		`<http://s> <http://p> <http://o>`,         // missing dot
		`<http://s> "lit" <http://o> .`,            // literal predicate
		`<http://s> <http://p> .`,                  // missing object
		`<http://s <http://p> <http://o> .`,        // unterminated IRI
		`<http://s> <http://p> "unterminated .`,    // unterminated literal
		`<http://s> <http://p> "x"^^"notiri" .`,    // datatype not IRI
		`<http://s> <http://p> <http://o> . extra`, // trailing garbage
		`_: <http://p> <http://o> .`,               // empty blank label
	}
	for _, line := range bad {
		if _, err := ParseTripleLine(line); err == nil {
			t.Errorf("ParseTripleLine(%q) succeeded, want error", line)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	triples := []Triple{
		NewTriple(NewIRI("http://s1"), NewIRI("http://p"), NewIRI("http://o")),
		NewTriple(NewIRI("http://s2"), NewIRI("http://p"), NewLangLiteral("héllo wörld", "de")),
		NewTriple(NewBlank("n1"), NewIRI("http://p"), NewTypedLiteral("3.14", XSDDouble)),
		NewTriple(NewIRI("http://s3"), NewIRI("http://p"), NewLiteral("line1\nline2\t\"quoted\"")),
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, triples); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	back, err := ParseNTriples(&buf)
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	if !reflect.DeepEqual(back, triples) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", back, triples)
	}
}

// UCHAR escapes (\uXXXX, \UXXXXXXXX) are part of N-Triples in literals
// and IRIs alike.
func TestParseNTriplesUCHAR(t *testing.T) {
	doc := `<http://s/caf\u00E9> <http://p> "caf\u00E9 \U0001F600" .
<http://s> <http://p> "\b\f\'"^^<http://ex/dt> .
`
	triples, err := ParseNTriples(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	want := []Triple{
		NewTriple(NewIRI("http://s/café"), NewIRI("http://p"), NewLiteral("café 😀")),
		NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewTypedLiteral("\b\f'", "http://ex/dt")),
	}
	if !reflect.DeepEqual(triples, want) {
		t.Errorf("parsed %v, want %v", triples, want)
	}
	for _, bad := range []string{
		`<http://s> <http://p> "\u00E" .`,      // short
		`<http://s> <http://p> "\uD800" .`,     // surrogate
		`<http://s> <http://p> "\uZZZZ" .`,     // not hex
		`<http://s\n> <http://p> <http://o> .`, // IRIs take UCHAR only
	} {
		if _, err := ParseTripleLine(bad); err == nil {
			t.Errorf("ParseTripleLine(%q) succeeded, want error", bad)
		}
	}
}

// An IRI holding characters IRIREF forbids is written with UCHAR escapes,
// so WriteNTriples output always parses back.
func TestWriteNTriplesEscapesIRIs(t *testing.T) {
	triples := []Triple{
		NewTriple(NewIRI("http://a/b c>d"), NewIRI("http://p/{x}|^`\\\""), NewIRI("http://o/\t\n<")),
		NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewTypedLiteral("x", "http://dt/a b")),
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, triples); err != nil {
		t.Fatal(err)
	}
	if got := NewIRI("http://a/b c>d").String(); got != `<http://a/b\u0020c\u003Ed>` {
		t.Errorf("String() = %s", got)
	}
	back, err := ParseNTriples(&buf)
	if err != nil {
		t.Fatalf("ParseNTriples(%q): %v", buf.String(), err)
	}
	if !reflect.DeepEqual(back, triples) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", back, triples)
	}
}

func TestParseTerm(t *testing.T) {
	good := []struct {
		in   string
		want Term
	}{
		{`<http://a>`, NewIRI("http://a")},
		{` <http://a>	`, NewIRI("http://a")},
		{`_:b0`, NewBlank("b0")},
		{`"x"`, NewLiteral("x")},
		{`"x\ty"@en-GB`, NewLangLiteral("x\ty", "en-GB")},
		{`"5"^^<http://www.w3.org/2001/XMLSchema#integer>`, NewTypedLiteral("5", XSDInteger)},
		{`5`, NewTypedLiteral("5", XSDInteger)},
		{" 5\r", NewTypedLiteral("5", XSDInteger)},
		{`-12`, NewTypedLiteral("-12", XSDInteger)},
		{`+1.5`, NewTypedLiteral("+1.5", XSDDecimal)},
		{`.5`, NewTypedLiteral(".5", XSDDecimal)},
		{`1e3`, NewTypedLiteral("1e3", XSDDouble)},
		{`1.E-3`, NewTypedLiteral("1.E-3", XSDDouble)},
		{`true`, NewTypedLiteral("true", XSDBoolean)},
		{`false`, NewBoolean(false)},
	}
	for _, tc := range good {
		got, err := ParseTerm(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseTerm(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{``, `5.`, `1e`, `+`, `True`, `<http://a> <http://b>`, `"x" .`, `_:`, `_:a b`, `"x"@`, `x`} {
		if got, err := ParseTerm(bad); err == nil {
			t.Errorf("ParseTerm(%q) = %v, want error", bad, got)
		}
	}
}

// Turtle reads numbers and escapes with the same rules as ParseTerm.
func TestTurtleSharedTermGrammar(t *testing.T) {
	triples, err := ParseTurtle(strings.NewReader(`<http://s/\u00E9> <http://p> 1e3, 2.5, 7, 'caf\u00E9\'' .`))
	if err != nil {
		t.Fatal(err)
	}
	want := []Term{NewTypedLiteral("1e3", XSDDouble), NewTypedLiteral("2.5", XSDDecimal), NewTypedLiteral("7", XSDInteger), NewLiteral("café'")}
	if len(triples) != len(want) {
		t.Fatalf("triples = %v", triples)
	}
	for i, tr := range triples {
		if tr.S != NewIRI("http://s/é") || tr.O != want[i] {
			t.Errorf("triple %d = %v, want object %v", i, tr, want[i])
		}
	}
}
