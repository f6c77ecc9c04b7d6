// Package rdf implements the RDF data model: IRIs, literals, blank nodes,
// triples, and an N-Triples reader/writer. It is the foundation for the
// triple store, the SPARQL evaluator, and the federation layers above.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the three kinds of concrete RDF terms.
type Kind uint8

const (
	// IRI is an internationalized resource identifier, e.g. <http://a/b>.
	IRI Kind = iota
	// Literal is a (possibly typed or language-tagged) literal value.
	Literal
	// Blank is a blank node with a document-scoped label.
	Blank
)

// Common XSD datatype IRIs.
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate    = "http://www.w3.org/2001/XMLSchema#date"
)

// Well-known RDF vocabulary IRIs.
const (
	RDFType   = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFSLabel = "http://www.w3.org/2000/01/rdf-schema#label"
	OWLSameAs = "http://www.w3.org/2002/07/owl#sameAs"
)

// Term is a concrete RDF term. The zero value is the empty IRI, which is
// never produced by the constructors and can serve as a sentinel.
//
// Term is a comparable value type so it can key maps directly.
type Term struct {
	Kind     Kind
	Value    string // IRI text, literal lexical form, or blank node label
	Lang     string // language tag, only for literals
	Datatype string // datatype IRI, only for literals; empty means plain
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewBlank returns a blank node term with the given label (without "_:").
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a literal term with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return Term{Kind: Literal, Value: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Term {
	return Term{Kind: Literal, Value: strconv.FormatFloat(v, 'g', -1, 64), Datatype: XSDDouble}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	return Term{Kind: Literal, Value: strconv.FormatBool(v), Datatype: XSDBoolean}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsZero reports whether the term is the zero Term.
func (t Term) IsZero() bool { return t == Term{} }

// Numeric returns the term's value as a float64 if the term is a numeric
// literal (typed numeric, or a plain literal whose lexical form parses as a
// number, matching common SPARQL engine leniency).
func (t Term) Numeric() (float64, bool) {
	if t.Kind != Literal {
		return 0, false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble, "":
		f, err := strconv.ParseFloat(t.Value, 64)
		return f, err == nil
	}
	return 0, false
}

// Bool returns the term's value as a bool for xsd:boolean literals.
func (t Term) Bool() (bool, bool) {
	if t.Kind != Literal || t.Datatype != XSDBoolean {
		return false, false
	}
	b, err := strconv.ParseBool(t.Value)
	return b, err == nil
}

// String renders the term in N-Triples syntax; see AppendTerm.
func (t Term) String() string {
	var buf [128]byte
	return string(AppendTerm(buf[:0], t))
}

// AppendTerm appends t to dst in N-Triples syntax and returns the extended
// slice. Characters an IRI may not hold raw (controls, space, <>"{}|^`\)
// are written as \u00XX escapes and a literal's quote, backslash, tab, line
// feed and carriage return as \", \\, \t, \n and \r, so the output is one
// line without tabs that ParseTerm and ParseTripleLine read back to t.
// Blank node labels and language tags are written raw: N-Triples has no
// escapes for them.
func AppendTerm(dst []byte, t Term) []byte {
	switch t.Kind {
	case IRI:
		return appendIRI(dst, t.Value)
	case Blank:
		return append(append(dst, "_:"...), t.Value...)
	}
	dst = append(dst, '"')
	dst = appendEscapedLiteral(dst, t.Value)
	dst = append(dst, '"')
	if t.Lang != "" {
		return append(append(dst, '@'), t.Lang...)
	}
	if t.Datatype != "" {
		return appendIRI(append(dst, "^^"...), t.Datatype)
	}
	return dst
}

const hexDigits = "0123456789ABCDEF"

// iriEscaped marks the bytes IRIREF does not admit raw.
var iriEscaped = func() (set [256]bool) {
	for c := 0; c <= ' '; c++ {
		set[c] = true
	}
	for _, c := range []byte("<>\"{}|^`\\") {
		set[c] = true
	}
	return set
}()

func appendIRI(dst []byte, iri string) []byte {
	dst = append(dst, '<')
	start := 0
	for i := 0; i < len(iri); i++ {
		if !iriEscaped[iri[i]] {
			continue
		}
		dst = append(dst, iri[start:i]...)
		dst = append(dst, '\\', 'u', '0', '0', hexDigits[iri[i]>>4], hexDigits[iri[i]&15])
		start = i + 1
	}
	dst = append(dst, iri[start:]...)
	return append(dst, '>')
}

// appendEscapedLiteral works on bytes, not runes, so a lexical form that is
// not valid UTF-8 survives the round trip unchanged.
func appendEscapedLiteral(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc byte
		switch s[i] {
		case '"':
			esc = '"'
		case '\\':
			esc = '\\'
		case '\n':
			esc = 'n'
		case '\r':
			esc = 'r'
		case '\t':
			esc = 't'
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, '\\', esc)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// Compare orders terms: blanks < IRIs < literals, then by value, language,
// and datatype. Numeric literals compare numerically when both sides are
// numeric. The ordering is total and is used for ORDER BY and index layout.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		return int(kindRank(t.Kind)) - int(kindRank(u.Kind))
	}
	if t.Kind == Literal {
		if fa, oka := t.Numeric(); oka {
			if fb, okb := u.Numeric(); okb {
				switch {
				case fa < fb:
					return -1
				case fa > fb:
					return 1
				}
			}
		}
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Lang, u.Lang); c != 0 {
		return c
	}
	return strings.Compare(t.Datatype, u.Datatype)
}

func kindRank(k Kind) uint8 {
	switch k {
	case Blank:
		return 0
	case IRI:
		return 1
	default:
		return 2
	}
}

// Triple is an RDF statement (subject, predicate, object).
type Triple struct {
	S, P, O Term
}

// NewTriple is a convenience constructor.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as one N-Triples line (without newline).
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// Compare orders triples lexicographically by subject, predicate, object.
func (t Triple) Compare(u Triple) int {
	if c := t.S.Compare(u.S); c != 0 {
		return c
	}
	if c := t.P.Compare(u.P); c != 0 {
		return c
	}
	return t.O.Compare(u.O)
}
