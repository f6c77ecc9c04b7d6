package rdf

import (
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseTurtle reads a Turtle document (a practical subset: @prefix/@base and
// their SPARQL-style PREFIX/BASE forms, prefixed names, the `a` keyword,
// `;` and `,` predicate/object lists, blank node labels, and literals with
// language tags, datatypes, numbers, and booleans). Anonymous blank nodes
// `[...]` and RDF collections `(...)` are not supported.
//
// N-Triples is a syntactic subset of Turtle, so ParseTurtle also reads
// N-Triples files.
func ParseTurtle(r io.Reader) ([]Triple, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("turtle: %w", err)
	}
	p := &turtleParser{in: string(data), prefixes: map[string]string{}}
	return p.document()
}

type turtleParser struct {
	in       string
	pos      int
	prefixes map[string]string
	base     string
}

func (p *turtleParser) errf(format string, args ...any) error {
	line := 1 + strings.Count(p.in[:p.pos], "\n")
	return fmt.Errorf("turtle: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *turtleParser) document() ([]Triple, error) {
	var out []Triple
	for {
		p.skipWS()
		if p.pos >= len(p.in) {
			return out, nil
		}
		switch {
		case p.hasPrefixFold("@prefix") || p.hasPrefixFold("PREFIX"):
			if err := p.prefixDirective(); err != nil {
				return nil, err
			}
		case p.hasPrefixFold("@base") || p.hasPrefixFold("BASE"):
			if err := p.baseDirective(); err != nil {
				return nil, err
			}
		default:
			triples, err := p.triples()
			if err != nil {
				return nil, err
			}
			out = append(out, triples...)
		}
	}
}

func (p *turtleParser) hasPrefixFold(s string) bool {
	if p.pos+len(s) > len(p.in) {
		return false
	}
	return strings.EqualFold(p.in[p.pos:p.pos+len(s)], s)
}

func (p *turtleParser) prefixDirective() error {
	atForm := p.in[p.pos] == '@'
	if atForm {
		p.pos += len("@prefix")
	} else {
		p.pos += len("PREFIX")
	}
	p.skipWS()
	colon := strings.IndexByte(p.in[p.pos:], ':')
	if colon < 0 {
		return p.errf("malformed prefix declaration")
	}
	name := strings.TrimSpace(p.in[p.pos : p.pos+colon])
	p.pos += colon + 1
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.prefixes[name] = iri
	p.skipWS()
	if atForm {
		if !p.eat('.') {
			return p.errf("@prefix must end with '.'")
		}
	} else {
		p.eat('.') // SPARQL-style PREFIX takes no dot, but tolerate one
	}
	return nil
}

func (p *turtleParser) baseDirective() error {
	atForm := p.in[p.pos] == '@'
	if atForm {
		p.pos += len("@base")
	} else {
		p.pos += len("BASE")
	}
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.base = iri
	p.skipWS()
	if atForm && !p.eat('.') {
		return p.errf("@base must end with '.'")
	}
	return nil
}

// triples parses one subject with its predicate-object list.
func (p *turtleParser) triples() ([]Triple, error) {
	subj, err := p.term(true)
	if err != nil {
		return nil, err
	}
	var out []Triple
	for {
		p.skipWS()
		pred, err := p.predicate()
		if err != nil {
			return nil, err
		}
		for {
			p.skipWS()
			obj, err := p.term(false)
			if err != nil {
				return nil, err
			}
			out = append(out, Triple{S: subj, P: pred, O: obj})
			p.skipWS()
			if p.eat(',') {
				continue
			}
			break
		}
		if p.eat(';') {
			p.skipWS()
			if p.pos < len(p.in) && (p.in[p.pos] == '.' || p.in[p.pos] == ';') {
				p.eat(';')
				p.skipWS()
			}
			if p.pos < len(p.in) && p.in[p.pos] == '.' {
				break
			}
			continue
		}
		break
	}
	p.skipWS()
	if !p.eat('.') {
		return nil, p.errf("expected '.' after triples")
	}
	return out, nil
}

func (p *turtleParser) predicate() (Term, error) {
	if p.pos < len(p.in) && p.in[p.pos] == 'a' {
		// 'a' keyword only if followed by whitespace.
		if p.pos+1 < len(p.in) && isTurtleWS(p.in[p.pos+1]) {
			p.pos++
			return NewIRI(RDFType), nil
		}
	}
	t, err := p.term(true)
	if err != nil {
		return Term{}, err
	}
	if !t.IsIRI() {
		return Term{}, p.errf("predicate must be an IRI, got %s", t)
	}
	return t, nil
}

// term parses an IRI, prefixed name, blank node, or (when subjectPos is
// false) a literal.
func (p *turtleParser) term(subjectPos bool) (Term, error) {
	p.skipWS()
	if p.pos >= len(p.in) {
		return Term{}, p.errf("unexpected end of document")
	}
	c := p.in[p.pos]
	switch {
	case c == '<':
		iri, err := p.iriRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case strings.HasPrefix(p.in[p.pos:], "_:"):
		p.pos += 2
		start := p.pos
		for p.pos < len(p.in) && isPNChar(rune(p.in[p.pos])) {
			p.pos++
		}
		if p.pos == start {
			return Term{}, p.errf("empty blank node label")
		}
		return NewBlank(p.in[start:p.pos]), nil
	case c == '"' || c == '\'':
		if subjectPos {
			return Term{}, p.errf("literal not allowed here")
		}
		return p.literal()
	case !subjectPos && (c == '+' || c == '-' || (c >= '0' && c <= '9')):
		return p.number()
	case !subjectPos && (p.hasWordAt("true") || p.hasWordAt("false")):
		v := p.hasWordAt("true")
		if v {
			p.pos += 4
		} else {
			p.pos += 5
		}
		return NewBoolean(v), nil
	default:
		return p.prefixedName()
	}
}

func (p *turtleParser) hasWordAt(w string) bool {
	if !strings.HasPrefix(p.in[p.pos:], w) {
		return false
	}
	end := p.pos + len(w)
	return end >= len(p.in) || !isPNChar(rune(p.in[end]))
}

func (p *turtleParser) iriRef() (string, error) {
	if p.pos >= len(p.in) || p.in[p.pos] != '<' {
		return "", p.errf("expected IRI")
	}
	p.pos++
	end := strings.IndexByte(p.in[p.pos:], '>')
	if end < 0 {
		return "", p.errf("unterminated IRI")
	}
	iri := p.in[p.pos : p.pos+end]
	p.pos += end + 1
	if strings.IndexByte(iri, '\\') >= 0 {
		var err error
		if iri, err = unescape(iri, true); err != nil {
			return "", p.errf("IRI: %v", err)
		}
	}
	if p.base != "" && !strings.Contains(iri, "://") && !strings.HasPrefix(iri, "urn:") {
		iri = p.base + iri
	}
	return iri, nil
}

func (p *turtleParser) prefixedName() (Term, error) {
	start := p.pos
	for p.pos < len(p.in) && isPNChar(rune(p.in[p.pos])) {
		p.pos++
	}
	if p.pos >= len(p.in) || p.in[p.pos] != ':' {
		return Term{}, p.errf("expected prefixed name near %q", snippet(p.in[start:]))
	}
	prefix := p.in[start:p.pos]
	p.pos++
	base, ok := p.prefixes[prefix]
	if !ok {
		return Term{}, p.errf("undeclared prefix %q", prefix)
	}
	lstart := p.pos
	for p.pos < len(p.in) && (isPNChar(rune(p.in[p.pos])) || p.in[p.pos] == '.') {
		p.pos++
	}
	local := p.in[lstart:p.pos]
	// A trailing '.' terminates the statement, not the name.
	for strings.HasSuffix(local, ".") {
		local = local[:len(local)-1]
		p.pos--
	}
	return NewIRI(base + local), nil
}

func (p *turtleParser) literal() (Term, error) {
	quote := p.in[p.pos]
	long := strings.HasPrefix(p.in[p.pos:], strings.Repeat(string(quote), 3))
	var lex string
	if long {
		p.pos += 3
		end := strings.Index(p.in[p.pos:], strings.Repeat(string(quote), 3))
		if end < 0 {
			return Term{}, p.errf("unterminated long literal")
		}
		lex = p.in[p.pos : p.pos+end]
		p.pos += end + 3
	} else {
		p.pos++
		start, escaped := p.pos, false
		for {
			if p.pos >= len(p.in) {
				return Term{}, p.errf("unterminated literal")
			}
			c := p.in[p.pos]
			if c == quote {
				break
			}
			if c == '\\' {
				escaped = true
				p.pos++ // the escaped byte cannot close the literal
			}
			p.pos++
		}
		lex = p.in[start:p.pos]
		p.pos++
		if escaped {
			var err error
			if lex, err = unescape(lex, false); err != nil {
				return Term{}, p.errf("literal: %v", err)
			}
		}
	}
	// Language tag or datatype.
	if p.pos < len(p.in) && p.in[p.pos] == '@' {
		p.pos++
		start := p.pos
		for p.pos < len(p.in) && (isPNChar(rune(p.in[p.pos])) || p.in[p.pos] == '-') {
			p.pos++
		}
		if p.pos == start {
			return Term{}, p.errf("empty language tag")
		}
		return NewLangLiteral(lex, p.in[start:p.pos]), nil
	}
	if strings.HasPrefix(p.in[p.pos:], "^^") {
		p.pos += 2
		if p.pos < len(p.in) && p.in[p.pos] == '<' {
			dt, err := p.iriRef()
			if err != nil {
				return Term{}, err
			}
			return NewTypedLiteral(lex, dt), nil
		}
		dt, err := p.prefixedName()
		if err != nil {
			return Term{}, err
		}
		return NewTypedLiteral(lex, dt.Value), nil
	}
	return NewLiteral(lex), nil
}

func (p *turtleParser) number() (Term, error) {
	n, datatype := scanNumber(p.in[p.pos:])
	if n == 0 {
		return Term{}, p.errf("malformed number")
	}
	lex := p.in[p.pos : p.pos+n]
	p.pos += n
	return NewTypedLiteral(lex, datatype), nil
}

func (p *turtleParser) eat(c byte) bool {
	if p.pos < len(p.in) && p.in[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *turtleParser) skipWS() {
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if isTurtleWS(c) {
			p.pos++
			continue
		}
		if c == '#' {
			nl := strings.IndexByte(p.in[p.pos:], '\n')
			if nl < 0 {
				p.pos = len(p.in)
				return
			}
			p.pos += nl + 1
			continue
		}
		return
	}
}

func isTurtleWS(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isPNChar(r rune) bool {
	if r >= utf8.RuneSelf {
		return unicode.IsLetter(r) || unicode.IsDigit(r)
	}
	return r == '_' || r == '-' ||
		(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
}

func snippet(s string) string {
	if len(s) > 20 {
		return s[:20] + "..."
	}
	return s
}
