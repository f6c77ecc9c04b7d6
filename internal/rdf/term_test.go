package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	tests := []struct {
		name    string
		term    Term
		isIRI   bool
		isLit   bool
		isBlank bool
	}{
		{"iri", NewIRI("http://example.org/a"), true, false, false},
		{"plain literal", NewLiteral("hello"), false, true, false},
		{"lang literal", NewLangLiteral("hello", "en"), false, true, false},
		{"typed literal", NewTypedLiteral("5", XSDInteger), false, true, false},
		{"blank", NewBlank("b0"), false, false, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.term.IsIRI(); got != tc.isIRI {
				t.Errorf("IsIRI() = %v, want %v", got, tc.isIRI)
			}
			if got := tc.term.IsLiteral(); got != tc.isLit {
				t.Errorf("IsLiteral() = %v, want %v", got, tc.isLit)
			}
			if got := tc.term.IsBlank(); got != tc.isBlank {
				t.Errorf("IsBlank() = %v, want %v", got, tc.isBlank)
			}
		})
	}
}

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{NewIRI("http://example.org/a"), "<http://example.org/a>"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewTypedLiteral("5", XSDInteger), `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewBlank("b1"), "_:b1"},
		{NewLiteral("a\"b\\c\nd"), `"a\"b\\c\nd"`},
	}
	for _, tc := range tests {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestNumeric(t *testing.T) {
	if v, ok := NewInteger(42).Numeric(); !ok || v != 42 {
		t.Errorf("Numeric(42) = %v, %v", v, ok)
	}
	if v, ok := NewDouble(2.5).Numeric(); !ok || v != 2.5 {
		t.Errorf("Numeric(2.5) = %v, %v", v, ok)
	}
	if _, ok := NewIRI("x").Numeric(); ok {
		t.Error("IRI should not be numeric")
	}
	if _, ok := NewLiteral("abc").Numeric(); ok {
		t.Error("non-numeric literal should not be numeric")
	}
	if v, ok := NewLiteral("7").Numeric(); !ok || v != 7 {
		t.Errorf("plain numeric literal = %v, %v", v, ok)
	}
}

func TestBool(t *testing.T) {
	if v, ok := NewBoolean(true).Bool(); !ok || !v {
		t.Errorf("Bool(true) = %v, %v", v, ok)
	}
	if _, ok := NewLiteral("true").Bool(); ok {
		t.Error("plain literal should not be boolean")
	}
}

func TestCompareOrdering(t *testing.T) {
	blank := NewBlank("b")
	iri := NewIRI("http://a")
	lit := NewLiteral("a")
	if blank.Compare(iri) >= 0 {
		t.Error("blank should sort before IRI")
	}
	if iri.Compare(lit) >= 0 {
		t.Error("IRI should sort before literal")
	}
	if NewInteger(2).Compare(NewInteger(10)) >= 0 {
		t.Error("numeric literals should compare numerically")
	}
	if NewIRI("a").Compare(NewIRI("a")) != 0 {
		t.Error("equal IRIs should compare equal")
	}
}

func TestCompareIsAntisymmetric(t *testing.T) {
	terms := []Term{
		NewIRI("http://a"), NewIRI("http://b"), NewBlank("x"),
		NewLiteral("a"), NewLangLiteral("a", "en"), NewTypedLiteral("3", XSDInteger),
		NewInteger(3), NewDouble(3.0),
	}
	for _, a := range terms {
		for _, b := range terms {
			if a.Compare(b) != -b.Compare(a) && !(a.Compare(b) == 0 && b.Compare(a) == 0) {
				t.Errorf("Compare not antisymmetric for %s vs %s", a, b)
			}
		}
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o"))
	want := `<http://s> <http://p> "o" .`
	if got := tr.String(); got != want {
		t.Errorf("Triple.String() = %q, want %q", got, want)
	}
}

func TestTripleCompare(t *testing.T) {
	a := NewTriple(NewIRI("http://a"), NewIRI("http://p"), NewLiteral("1"))
	b := NewTriple(NewIRI("http://b"), NewIRI("http://p"), NewLiteral("1"))
	c := NewTriple(NewIRI("http://a"), NewIRI("http://p"), NewLiteral("2"))
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Error("subject ordering wrong")
	}
	if a.Compare(c) >= 0 {
		t.Error("object ordering wrong")
	}
	if a.Compare(a) != 0 {
		t.Error("self comparison should be zero")
	}
}

// Property: whatever String writes parses back to an equal term, alone
// (ParseTerm) and inside a triple line — IRIs, literal values and datatypes
// holding any characters, blank node labels and language tags holding any
// but whitespace, which N-Triples cannot escape there.
func TestTermRoundTripProperty(t *testing.T) {
	noSpace := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == ' ' || r == '\t' || r == '\r' || r == '\n' {
				return -1
			}
			return r
		}, s)
	}
	f := func(value, extra string, kind uint8) bool {
		var term Term
		switch kind % 5 {
		case 0:
			term = NewIRI("http://x/" + value)
		case 1:
			term = NewLiteral(value)
		case 2:
			term = NewLangLiteral(value, "en"+noSpace(extra))
		case 3:
			term = NewTypedLiteral(value, "http://dt/"+extra)
		default:
			term = NewBlank("b" + noSpace(extra))
		}
		got, err := ParseTerm(term.String())
		if err != nil || got != term {
			t.Logf("ParseTerm(%q) = %v, %v", term.String(), got, err)
			return false
		}
		tr, err := ParseTripleLine("<http://s> <http://p> " + term.String() + " .")
		return err == nil && tr.O == term
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	// Lexical forms that are not UTF-8 survive byte for byte.
	lit := NewLiteral("a\xff\x00\"b")
	if got, err := ParseTerm(lit.String()); err != nil || got != lit {
		t.Errorf("ParseTerm(%q) = %v, %v", lit.String(), got, err)
	}
}
