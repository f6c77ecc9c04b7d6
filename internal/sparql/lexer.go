package sparql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"lusail/internal/rdf"
)

type tokenKind int

const (
	tokEOF     tokenKind = iota
	tokIRI               // <http://...>
	tokPName             // prefix:local or prefix: (prefixed name)
	tokVar               // ?x or $x
	tokString            // "..." (value has escapes resolved)
	tokLangTag           // @en
	tokDTSep             // ^^
	tokNumber            // 42, 3.14, -1e3
	tokKeyword           // SELECT, WHERE, FILTER, ... (upper-cased)
	tokA                 // the keyword 'a' (rdf:type)
	tokPunct             // { } ( ) . , ; *
	tokOp                // = != < <= > >= && || ! + - /
)

type token struct {
	kind tokenKind
	text string // for tokString: unescaped value; otherwise raw text
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

type lexer struct {
	in   string
	pos  int
	toks []token
}

// lex tokenizes the whole input up front. Queries run from about 4 bytes
// a token (punctuation, variables) to about 11 (long IRIs); the token list
// is sized for 5, so most queries fill it without growing it.
func lex(input string) ([]token, error) {
	l := &lexer{in: input, toks: make([]token, 0, len(input)/5+1)}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.in[l.pos]
	switch {
	case c == '<':
		// '<' starts an IRI only if a whitespace-free run reaches '>';
		// otherwise it is the less-than operator (e.g. FILTER(?x < 5)).
		if end := strings.IndexByte(l.in[l.pos:], '>'); end >= 0 && !strings.ContainsAny(l.in[l.pos:l.pos+end], " \t\n\r") {
			raw := l.in[l.pos : l.pos+end+1]
			t := token{kind: tokIRI, text: raw[1:end], pos: start}
			if strings.IndexByte(t.text, '\\') >= 0 {
				// UCHAR escapes, which Term.String writes for the
				// characters an IRI cannot hold raw.
				iri, err := rdf.ParseTerm(raw)
				if err != nil {
					return token{}, l.lexErr(start, raw, err.Error())
				}
				t.text = iri.Value
			}
			l.pos += end + 1
			return t, nil
		}
		l.pos++
		if l.pos < len(l.in) && l.in[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: "<=", pos: start}, nil
		}
		return token{kind: tokOp, text: "<", pos: start}, nil
	case c == '?' || c == '$':
		l.pos++
		name := l.takeWhile(isVarChar)
		if name == "" {
			return token{}, l.lexErr(start, string(c), "empty variable name")
		}
		return token{kind: tokVar, text: name, pos: start}, nil
	case c == '"' || c == '\'':
		return l.lexString(c)
	case c == '@':
		l.pos++
		tag := l.takeWhile(func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' })
		if tag == "" {
			return token{}, l.lexErr(start, "@", "empty language tag")
		}
		return token{kind: tokLangTag, text: tag, pos: start}, nil
	case strings.HasPrefix(l.in[l.pos:], "^^"):
		l.pos += 2
		return token{kind: tokDTSep, text: "^^", pos: start}, nil
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case c == '{' || c == '}' || c == '(' || c == ')' || c == '.' || c == ',' || c == ';' || c == '*':
		l.pos++
		return token{kind: tokPunct, text: l.in[start:l.pos], pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, text: "=", pos: start}, nil
	case c == '!':
		l.pos++
		if l.pos < len(l.in) && l.in[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: "!=", pos: start}, nil
		}
		return token{kind: tokOp, text: "!", pos: start}, nil
	case c == '<' || c == '>': // '<' handled above; '>' here
		l.pos++
		if l.pos < len(l.in) && l.in[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokOp, text: l.in[start:l.pos], pos: start}, nil
	case c == '&' && strings.HasPrefix(l.in[l.pos:], "&&"):
		l.pos += 2
		return token{kind: tokOp, text: "&&", pos: start}, nil
	case c == '|' && strings.HasPrefix(l.in[l.pos:], "||"):
		l.pos += 2
		return token{kind: tokOp, text: "||", pos: start}, nil
	case c == '+' || c == '/':
		l.pos++
		return token{kind: tokOp, text: l.in[start:l.pos], pos: start}, nil
	case c == '-':
		// Could start a negative number.
		if l.pos+1 < len(l.in) && l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9' {
			l.pos++
			t, err := l.lexNumber()
			if err != nil {
				return token{}, err
			}
			t.text = "-" + t.text
			t.pos = start
			return t, nil
		}
		l.pos++
		return token{kind: tokOp, text: "-", pos: start}, nil
	default:
		return l.lexWord()
	}
}

func (l *lexer) lexWord() (token, error) {
	start := l.pos
	word := l.takeWhile(func(r rune) bool {
		return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.'
	})
	if word == "" {
		return token{}, l.lexErr(start, string(l.in[l.pos]), fmt.Sprintf("unexpected character %q", l.in[l.pos]))
	}
	// A word followed by ':' is a prefixed-name prefix.
	if l.pos < len(l.in) && l.in[l.pos] == ':' {
		l.pos++
		local := l.takeWhile(func(r rune) bool {
			return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
		})
		return token{kind: tokPName, text: word + ":" + local, pos: start}, nil
	}
	// Trailing '.' belongs to triple termination, not the word (e.g. "ex.").
	for strings.HasSuffix(word, ".") {
		word = word[:len(word)-1]
		l.pos--
	}
	if word == "a" {
		return token{kind: tokA, text: "a", pos: start}, nil
	}
	// Every other bare word is a keyword (SELECT, WHERE, ...) or a function
	// name (REGEX, STR, ...); the parser tells them apart.
	return token{kind: tokKeyword, text: strings.ToUpper(word), pos: start}, nil
}

func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++
	var b strings.Builder
	for {
		if l.pos >= len(l.in) {
			snip := l.in[start:min(start+12, len(l.in))]
			if i := strings.IndexByte(snip, '\n'); i >= 0 {
				snip = snip[:i]
			}
			return token{}, l.lexErr(start, snip, "unterminated string")
		}
		c := l.in[l.pos]
		if c == quote {
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start}, nil
		}
		if c == '\\' {
			if l.pos+1 >= len(l.in) {
				return token{}, l.lexErr(l.pos, "\\", "dangling escape")
			}
			l.pos++
			switch l.in[l.pos] {
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case '"', '\'', '\\':
				b.WriteByte(l.in[l.pos])
			default:
				return token{}, l.lexErr(l.pos, "\\"+string(l.in[l.pos]), fmt.Sprintf("unsupported escape \\%c", l.in[l.pos]))
			}
			l.pos++
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	l.takeWhile(func(r rune) bool { return r >= '0' && r <= '9' })
	if l.pos < len(l.in) && l.in[l.pos] == '.' && l.pos+1 < len(l.in) && l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9' {
		l.pos++
		l.takeWhile(func(r rune) bool { return r >= '0' && r <= '9' })
	}
	if l.pos < len(l.in) && (l.in[l.pos] == 'e' || l.in[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.in) && (l.in[l.pos] == '+' || l.in[l.pos] == '-') {
			l.pos++
		}
		if l.pos >= len(l.in) || l.in[l.pos] < '0' || l.in[l.pos] > '9' {
			l.pos = save // not an exponent after all
		} else {
			l.takeWhile(func(r rune) bool { return r >= '0' && r <= '9' })
		}
	}
	return token{kind: tokNumber, text: l.in[start:l.pos], pos: start}, nil
}

func (l *lexer) takeWhile(pred func(rune) bool) string {
	start := l.pos
	for l.pos < len(l.in) {
		r, size := rune(l.in[l.pos]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(l.in[l.pos:])
		}
		if !pred(r) {
			break
		}
		l.pos += size
	}
	return l.in[start:l.pos]
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '#' {
			nl := strings.IndexByte(l.in[l.pos:], '\n')
			if nl < 0 {
				l.pos = len(l.in)
				return
			}
			l.pos += nl + 1
			continue
		}
		return
	}
}

func isVarChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// lexErr builds a position-carrying ParseError for a failure at pos, with
// the offending token text. Line/column are derived from the full input so
// every lexer error is precisely locatable.
func (l *lexer) lexErr(pos int, tok, msg string) error {
	line, col := LineCol(l.in, pos)
	return &ParseError{Pos: pos, Line: line, Col: col, Token: tok, Msg: msg}
}
