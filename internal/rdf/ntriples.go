package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseNTriples reads an N-Triples document and returns its triples.
// Lines that are empty or start with '#' are skipped. The parser accepts the
// N-Triples grammar: IRIs in angle brackets, blank nodes, and literals with
// optional language tags or datatypes, with ECHAR and UCHAR escapes.
func ParseNTriples(r io.Reader) ([]Triple, error) {
	var out []Triple
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	//lint:lusail-vet budgetbound -- parses operator-supplied dataset files at load time, not remote responses; the input file bounds the size
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := ParseTripleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading n-triples: %w", err)
	}
	return out, nil
}

// ParseTripleLine parses a single N-Triples statement such as
// `<s> <p> "o" .` into a Triple.
func ParseTripleLine(line string) (Triple, error) {
	p := &ntParser{in: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	pred, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipSpace()
	if !p.eat('.') {
		return Triple{}, fmt.Errorf("expected terminating '.' in %q", line)
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return Triple{}, fmt.Errorf("trailing content after '.' in %q", line)
	}
	if pred.Kind != IRI {
		return Triple{}, fmt.Errorf("predicate must be an IRI, got %s", pred)
	}
	return Triple{S: s, P: pred, O: o}, nil
}

// ParseTerm parses s as exactly one RDF term: an IRI, blank node or literal
// in N-Triples syntax (the rule ParseTripleLine applies to each position),
// or a Turtle shorthand number or boolean (5, -1.5, 1e3, true), which
// becomes the corresponding xsd-typed literal. Surrounding whitespace is
// ignored. This is the cell grammar of the SPARQL 1.1 TSV results
// format; Term.String writes a form ParseTerm reads back to the same term.
//
// IRI and literal values without escapes are substrings of s, so a caller
// that slices many terms out of one string allocates nothing per term.
func ParseTerm(s string) (Term, error) {
	p := ntParser{in: s}
	p.skipSpace()
	if p.pos < len(s) && strings.IndexByte(`<_"`, s[p.pos]) < 0 {
		if t, ok := shorthand(strings.TrimRight(s[p.pos:], " \t\r\n")); ok {
			return t, nil
		}
	}
	t, err := p.term()
	if err != nil {
		return Term{}, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return Term{}, fmt.Errorf("trailing content after term in %q", s)
	}
	return t, nil
}

// shorthand recognizes a whole string as a Turtle numeric or boolean
// literal.
func shorthand(s string) (Term, bool) {
	if s == "true" || s == "false" {
		return NewTypedLiteral(s, XSDBoolean), true
	}
	if n, datatype := scanNumber(s); n > 0 && n == len(s) {
		return NewTypedLiteral(s, datatype), true
	}
	return Term{}, false
}

// scanNumber measures the Turtle INTEGER, DECIMAL or DOUBLE at the start of
// s and returns its length and datatype, or 0 when s does not start with
// one. A '.' that is not followed by a digit or an exponent is left
// unconsumed: in Turtle it ends the statement.
func scanNumber(s string) (int, string) {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	intDigits := digitsAt(s, i)
	i += intDigits
	datatype := XSDInteger
	if i < len(s) && s[i] == '.' {
		if frac := digitsAt(s, i+1); frac > 0 {
			i += 1 + frac
			datatype = XSDDecimal
		} else if intDigits > 0 && exponentAt(s, i+1) > 0 {
			i++ // "5.e3": the '.' belongs to the double
		}
	}
	if intDigits == 0 && datatype != XSDDecimal {
		return 0, ""
	}
	if n := exponentAt(s, i); n > 0 {
		return i + n, XSDDouble
	}
	return i, datatype
}

// digitsAt counts the ASCII digits starting at s[i].
func digitsAt(s string, i int) int {
	n := 0
	for i+n < len(s) && s[i+n] >= '0' && s[i+n] <= '9' {
		n++
	}
	return n
}

// exponentAt measures a Turtle EXPONENT ([eE][+-]?[0-9]+) at s[i], or 0.
func exponentAt(s string, i int) int {
	if i >= len(s) || (s[i] != 'e' && s[i] != 'E') {
		return 0
	}
	j := i + 1
	if j < len(s) && (s[j] == '+' || s[j] == '-') {
		j++
	}
	d := digitsAt(s, j)
	if d == 0 {
		return 0
	}
	return j + d - i
}

// WriteNTriples writes the triples in N-Triples format, one per line.
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if _, err := bw.WriteString(t.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type ntParser struct {
	in  string
	pos int
}

func (p *ntParser) skipSpace() {
	for p.pos < len(p.in) && isNTWhitespace(p.in[p.pos]) {
		p.pos++
	}
}

func (p *ntParser) eat(c byte) bool {
	if p.pos < len(p.in) && p.in[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.in[p.pos] {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	}
	return Term{}, fmt.Errorf("unexpected character %q at offset %d", p.in[p.pos], p.pos)
}

func (p *ntParser) iri() (Term, error) {
	p.pos++ // consume '<'
	// IRIREF admits no raw '>', and UCHAR escapes contain none.
	end := strings.IndexByte(p.in[p.pos:], '>')
	if end < 0 {
		return Term{}, fmt.Errorf("unterminated IRI")
	}
	iri := p.in[p.pos : p.pos+end]
	p.pos += end + 1
	if strings.IndexByte(iri, '\\') >= 0 {
		var err error
		if iri, err = unescape(iri, true); err != nil {
			return Term{}, fmt.Errorf("IRI: %w", err)
		}
	}
	return NewIRI(iri), nil
}

func (p *ntParser) blank() (Term, error) {
	if !strings.HasPrefix(p.in[p.pos:], "_:") {
		return Term{}, fmt.Errorf("malformed blank node")
	}
	p.pos += 2
	start := p.pos
	for p.pos < len(p.in) && !isNTWhitespace(p.in[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return Term{}, fmt.Errorf("empty blank node label")
	}
	return NewBlank(p.in[start:p.pos]), nil
}

func (p *ntParser) literal() (Term, error) {
	p.pos++ // consume opening quote
	start := p.pos
	escaped := false
	for {
		if p.pos >= len(p.in) {
			return Term{}, fmt.Errorf("unterminated literal")
		}
		c := p.in[p.pos]
		if c == '"' {
			break
		}
		if c == '\\' {
			escaped = true
			p.pos++ // the escaped byte cannot close the literal
		}
		p.pos++
	}
	lex := p.in[start:p.pos]
	p.pos++ // consume closing quote
	if escaped {
		var err error
		if lex, err = unescape(lex, false); err != nil {
			return Term{}, fmt.Errorf("literal: %w", err)
		}
	}
	// Optional language tag or datatype.
	if p.pos < len(p.in) && p.in[p.pos] == '@' {
		p.pos++
		start := p.pos
		for p.pos < len(p.in) && !isNTWhitespace(p.in[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return Term{}, fmt.Errorf("empty language tag")
		}
		return NewLangLiteral(lex, p.in[start:p.pos]), nil
	}
	if strings.HasPrefix(p.in[p.pos:], "^^") {
		p.pos += 2
		if p.pos >= len(p.in) || p.in[p.pos] != '<' {
			return Term{}, fmt.Errorf("datatype must be an IRI")
		}
		dt, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		return NewTypedLiteral(lex, internDatatype(dt.Value)), nil
	}
	return NewLiteral(lex), nil
}

// unescape decodes the escapes of an N-Triples literal (ECHAR and UCHAR)
// or, when iri is set, of an IRIREF (UCHAR only).
func unescape(s string, iri bool) (string, error) {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		if i+1 >= len(s) {
			return "", fmt.Errorf("dangling escape")
		}
		i++
		e := s[i]
		if e == 'u' || e == 'U' {
			n := 4
			if e == 'U' {
				n = 8
			}
			if i+n >= len(s) {
				return "", fmt.Errorf("short \\%c escape", e)
			}
			v, err := strconv.ParseUint(s[i+1:i+1+n], 16, 32)
			if err != nil || !utf8.ValidRune(rune(v)) {
				return "", fmt.Errorf("invalid \\%c escape %q", e, s[i+1:i+1+n])
			}
			b.WriteRune(rune(v))
			i += n
			continue
		}
		if iri {
			return "", fmt.Errorf("unsupported escape \\%c", e)
		}
		switch e {
		case 't':
			b.WriteByte('\t')
		case 'b':
			b.WriteByte('\b')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 'f':
			b.WriteByte('\f')
		case '"', '\'', '\\':
			b.WriteByte(e)
		default:
			return "", fmt.Errorf("unsupported escape \\%c", e)
		}
	}
	return b.String(), nil
}

// internDatatype returns the package constant for the common XSD datatypes,
// so parsed literals share one copy of each instead of every literal
// holding its own.
func internDatatype(dt string) string {
	switch dt {
	case XSDString:
		return XSDString
	case XSDInteger:
		return XSDInteger
	case XSDDecimal:
		return XSDDecimal
	case XSDDouble:
		return XSDDouble
	case XSDBoolean:
		return XSDBoolean
	case XSDDate:
		return XSDDate
	}
	return dt
}

// isNTWhitespace reports the bytes that end a blank node label or language
// tag: N-Triples has no escapes for them there.
func isNTWhitespace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
