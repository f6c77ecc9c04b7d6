package sparql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"lusail/internal/rdf"
)

// Parse parses a SPARQL query in the supported subset. Syntax errors are
// returned as *ParseError with the byte offset of the offending token.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		var pe *ParseError
		if errors.As(err, &pe) {
			return nil, pe
		}
		return nil, &ParseError{Pos: -1, Msg: err.Error()}
	}
	p := &parser{toks: toks, src: input, prefixes: map[string]string{}}
	q, err := p.query()
	if err != nil {
		var pe *ParseError
		if errors.As(err, &pe) {
			return nil, pe
		}
		// Defensive: every parser error site should already build a
		// *ParseError via errf; anchor stragglers at the current token.
		return nil, p.errf(p.peek(), "%s", err.Error())
	}
	return q, nil
}

// MustParse is Parse but panics on error; intended for tests and for query
// constants whose validity is guaranteed by construction.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

// IsAsk reports whether query is an ASK query. It reads only the prologue
// (PREFIX and BASE declarations, comments) and the first keyword, so a
// client can choose the results format it asks for without parsing the
// whole query.
func IsAsk(query string) bool {
	l := &lexer{in: query}
	for {
		t, err := l.next()
		if err != nil || t.kind != tokKeyword {
			return false
		}
		switch t.text {
		case "ASK":
			return true
		case "PREFIX", "BASE":
			// A declaration ends with its IRI; no prefix name holds '>'.
			end := strings.IndexByte(l.in[l.pos:], '>')
			if end < 0 {
				return false
			}
			l.pos += end + 1
		default:
			return false
		}
	}
}

type parser struct {
	toks     []token
	pos      int
	src      string
	prefixes map[string]string
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) eatKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) atPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) eatPunct(s string) bool {
	if p.atPunct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		t := p.peek()
		return p.errf(t, "expected %q, got %s", s, t)
	}
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.eatKeyword(kw) {
		t := p.peek()
		return p.errf(t, "expected %s, got %s", kw, t)
	}
	return nil
}

// errf builds a *ParseError anchored at tok: byte offset, 1-based
// line/column, and the offending token's text (empty at end of input).
func (p *parser) errf(tok token, format string, args ...any) error {
	line, col := LineCol(p.src, tok.pos)
	text := tok.text
	if tok.kind == tokEOF {
		text = ""
	}
	return &ParseError{Pos: tok.pos, Line: line, Col: col, Token: text, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) query() (*Query, error) {
	for p.atKeyword("PREFIX") {
		p.advance()
		name := p.advance()
		if name.kind != tokPName || !strings.HasSuffix(name.text, ":") && !strings.Contains(name.text, ":") {
			return nil, p.errf(name, "expected prefix name, got %s", name)
		}
		pfx := strings.SplitN(name.text, ":", 2)[0]
		iri := p.advance()
		if iri.kind != tokIRI {
			return nil, p.errf(iri, "expected IRI after PREFIX %s:, got %s", pfx, iri)
		}
		p.prefixes[pfx] = iri.text
	}
	q, err := p.selectOrAsk()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errf(t, "unexpected trailing token %s", t)
	}
	return q, nil
}

func (p *parser) selectOrAsk() (*Query, error) {
	q := &Query{Limit: -1, Prefixes: p.prefixes}
	switch {
	case p.eatKeyword("SELECT"):
		q.Form = SelectForm
		if p.eatKeyword("DISTINCT") {
			q.Distinct = true
		} else {
			p.eatKeyword("REDUCED")
		}
		if err := p.projection(q); err != nil {
			return nil, err
		}
	case p.eatKeyword("ASK"):
		q.Form = AskForm
	case p.eatKeyword("CONSTRUCT"):
		q.Form = ConstructForm
		open := p.peek()
		tmpl := &GroupPattern{Pos: open.pos}
		save := p.prefixes
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		for !p.eatPunct("}") {
			if p.peek().kind == tokEOF {
				return nil, p.errf(p.peek(), "unterminated CONSTRUCT template")
			}
			if err := p.triplesBlock(tmpl); err != nil {
				return nil, err
			}
		}
		p.prefixes = save
		q.Template = tmpl.TriplePatterns()
		if len(q.Template) == 0 {
			return nil, p.errf(open, "empty CONSTRUCT template")
		}
	default:
		return nil, p.errf(p.peek(), "expected SELECT, ASK, or CONSTRUCT, got %s", p.peek())
	}
	p.eatKeyword("WHERE")
	g, err := p.groupPattern()
	if err != nil {
		return nil, err
	}
	q.Where = g
	if err := p.solutionModifiers(q); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) projection(q *Query) error {
	if p.eatPunct("*") {
		q.Star = true
		return nil
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tokVar:
			p.advance()
			q.Projection = append(q.Projection, Projection{Var: t.text, Pos: t.pos})
		case p.atPunct("("):
			p.advance()
			proj, err := p.aggregateProjection()
			if err != nil {
				return err
			}
			proj.Pos = t.pos
			q.Projection = append(q.Projection, proj)
		default:
			if len(q.Projection) == 0 {
				return p.errf(t, "expected projection variable, got %s", t)
			}
			return nil
		}
	}
}

// aggregateProjection parses "(COUNT(DISTINCT ?x) AS ?c)" after '('.
func (p *parser) aggregateProjection() (Projection, error) {
	fn := p.advance()
	if fn.kind != tokKeyword || !isAggregateFunc(fn.text) {
		return Projection{}, p.errf(fn, "expected aggregate function, got %s", fn)
	}
	agg := &Aggregate{Func: fn.text}
	if err := p.expectPunct("("); err != nil {
		return Projection{}, err
	}
	if p.eatKeyword("DISTINCT") {
		agg.Distinct = true
	}
	if p.eatPunct("*") {
		if agg.Func != "COUNT" {
			return Projection{}, p.errf(fn, "%s(*) is not valid", agg.Func)
		}
	} else {
		v := p.advance()
		if v.kind != tokVar {
			return Projection{}, p.errf(v, "expected variable in %s(), got %s", agg.Func, v)
		}
		agg.Var = v.text
	}
	if err := p.expectPunct(")"); err != nil {
		return Projection{}, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return Projection{}, err
	}
	out := p.advance()
	if out.kind != tokVar {
		return Projection{}, p.errf(out, "expected output variable after AS, got %s", out)
	}
	if err := p.expectPunct(")"); err != nil {
		return Projection{}, err
	}
	return Projection{Var: out.text, Agg: agg}, nil
}

func isAggregateFunc(s string) bool {
	switch s {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

func (p *parser) solutionModifiers(q *Query) error {
	for {
		switch {
		case p.eatKeyword("GROUP"):
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			for p.peek().kind == tokVar {
				q.GroupBy = append(q.GroupBy, p.advance().text)
			}
			if len(q.GroupBy) == 0 {
				return p.errf(p.peek(), "expected GROUP BY variable, got %s", p.peek())
			}
		case p.eatKeyword("ORDER"):
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			for {
				switch {
				case p.atKeyword("ASC"):
					pos := p.advance().pos
					v, err := p.parenVar()
					if err != nil {
						return err
					}
					q.OrderBy = append(q.OrderBy, OrderCond{Var: v, Pos: pos})
				case p.atKeyword("DESC"):
					pos := p.advance().pos
					v, err := p.parenVar()
					if err != nil {
						return err
					}
					q.OrderBy = append(q.OrderBy, OrderCond{Var: v, Desc: true, Pos: pos})
				case p.peek().kind == tokVar:
					vt := p.advance()
					q.OrderBy = append(q.OrderBy, OrderCond{Var: vt.text, Pos: vt.pos})
				default:
					if len(q.OrderBy) == 0 {
						return p.errf(p.peek(), "expected ORDER BY condition, got %s", p.peek())
					}
					goto next
				}
			}
		case p.eatKeyword("LIMIT"):
			t := p.advance()
			n, err := strconv.Atoi(t.text)
			if err != nil || n < 0 {
				return p.errf(t, "invalid LIMIT %s", t)
			}
			q.Limit = n
		case p.eatKeyword("OFFSET"):
			t := p.advance()
			n, err := strconv.Atoi(t.text)
			if err != nil || n < 0 {
				return p.errf(t, "invalid OFFSET %s", t)
			}
			q.Offset = n
		default:
			return nil
		}
	next:
	}
}

func (p *parser) parenVar() (string, error) {
	if err := p.expectPunct("("); err != nil {
		return "", err
	}
	v := p.advance()
	if v.kind != tokVar {
		return "", p.errf(v, "expected variable, got %s", v)
	}
	if err := p.expectPunct(")"); err != nil {
		return "", err
	}
	return v.text, nil
}

func (p *parser) groupPattern() (*GroupPattern, error) {
	open := p.peek()
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	g := &GroupPattern{Pos: open.pos}
	// GroupGraphPattern ::= '{' ( SubSelect | GroupGraphPatternSub ) '}'
	if p.atKeyword("SELECT") {
		selPos := p.peek().pos
		sub, err := p.selectOrAsk()
		if err != nil {
			return nil, err
		}
		p.eatPunct(".")
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		g.Elements = append(g.Elements, SubSelect{Query: sub, Pos: selPos})
		return g, nil
	}
	for {
		if p.eatPunct("}") {
			return g, nil
		}
		t := p.peek()
		switch {
		case t.kind == tokEOF:
			return nil, p.errf(t, "unexpected end of query inside group pattern")
		case p.atKeyword("FILTER"):
			kw := p.advance()
			e, err := p.filterExpr()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, Filter{Expr: e, Pos: kw.pos})
			p.eatPunct(".")
		case p.atKeyword("OPTIONAL"):
			kw := p.advance()
			inner, err := p.groupPattern()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, Optional{Group: inner, Pos: kw.pos})
			p.eatPunct(".")
		case p.atKeyword("BIND"):
			kw := p.advance()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			v := p.advance()
			if v.kind != tokVar {
				return nil, p.errf(v, "expected variable after AS, got %s", v)
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, Bind{Var: v.text, Expr: e, Pos: kw.pos})
			p.eatPunct(".")
		case p.atKeyword("VALUES"):
			kw := p.advance()
			vals, err := p.valuesBlock()
			if err != nil {
				return nil, err
			}
			vals.Pos = kw.pos
			g.Elements = append(g.Elements, vals)
			p.eatPunct(".")
		case p.atPunct("{"):
			// Either a nested group (possibly a UNION chain) or a sub-select.
			el, err := p.groupOrSubSelect()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, el)
			p.eatPunct(".")
		default:
			if err := p.triplesBlock(g); err != nil {
				return nil, err
			}
		}
	}
}

// groupOrSubSelect handles '{' ... '}' [UNION '{' ... '}']* and sub-selects.
func (p *parser) groupOrSubSelect() (Element, error) {
	// Look ahead: '{' SELECT ... is a sub-select.
	if p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "SELECT" {
		p.advance() // '{'
		selPos := p.peek().pos
		sub, err := p.selectOrAsk()
		if err != nil {
			return nil, err
		}
		p.eatPunct(".")
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return SubSelect{Query: sub, Pos: selPos}, nil
	}
	openPos := p.peek().pos
	first, err := p.groupPattern()
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("UNION") {
		// A plain nested group: flatten it as a single-branch union so the
		// evaluator treats it uniformly (join with the enclosing group).
		return Union{Branches: []*GroupPattern{first}, Pos: openPos}, nil
	}
	u := Union{Branches: []*GroupPattern{first}, Pos: openPos}
	for p.eatKeyword("UNION") {
		b, err := p.groupPattern()
		if err != nil {
			return nil, err
		}
		u.Branches = append(u.Branches, b)
	}
	return u, nil
}

// triplesBlock parses one or more triples with ';' and ',' shorthands until
// something that is not a triple continuation.
func (p *parser) triplesBlock(g *GroupPattern) error {
	subjPos := p.peek().pos
	subj, err := p.patternTerm(false)
	if err != nil {
		return err
	}
	for {
		pred, err := p.patternTerm(true)
		if err != nil {
			return err
		}
		for {
			obj, err := p.patternTerm(false)
			if err != nil {
				return err
			}
			g.Elements = append(g.Elements, TriplePattern{S: subj, P: pred, O: obj, Pos: subjPos})
			if p.eatPunct(",") {
				continue
			}
			break
		}
		if p.eatPunct(";") {
			if p.atPunct(".") || p.atPunct("}") { // dangling ';'
				break
			}
			continue
		}
		break
	}
	p.eatPunct(".")
	return nil
}

// patternTerm parses a variable or RDF term in a triple pattern position.
func (p *parser) patternTerm(isPredicate bool) (PatternTerm, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.advance()
		return Var(t.text), nil
	case tokIRI:
		p.advance()
		return Const(rdf.NewIRI(t.text)), nil
	case tokPName:
		p.advance()
		iri, err := p.expandPName(t)
		if err != nil {
			return PatternTerm{}, err
		}
		return Const(rdf.NewIRI(iri)), nil
	case tokA:
		if !isPredicate {
			return PatternTerm{}, p.errf(t, "'a' keyword only valid in predicate position")
		}
		p.advance()
		return Const(rdf.NewIRI(rdf.RDFType)), nil
	case tokString:
		if isPredicate {
			return PatternTerm{}, p.errf(t, "literal not allowed as predicate")
		}
		p.advance()
		return Const(p.literalTail(t.text)), nil
	case tokNumber:
		if isPredicate {
			return PatternTerm{}, p.errf(t, "number not allowed as predicate")
		}
		p.advance()
		return Const(numberTerm(t.text)), nil
	case tokKeyword:
		if t.text == "TRUE" || t.text == "FALSE" {
			p.advance()
			return Const(rdf.NewBoolean(t.text == "TRUE")), nil
		}
	}
	return PatternTerm{}, p.errf(t, "expected term or variable, got %s", t)
}

// literalTail consumes an optional language tag or datatype after a string.
func (p *parser) literalTail(lex string) rdf.Term {
	t := p.peek()
	switch t.kind {
	case tokLangTag:
		p.advance()
		return rdf.NewLangLiteral(lex, t.text)
	case tokDTSep:
		p.advance()
		dt := p.advance()
		switch dt.kind {
		case tokIRI:
			return rdf.NewTypedLiteral(lex, dt.text)
		case tokPName:
			if iri, err := p.expandPName(dt); err == nil {
				return rdf.NewTypedLiteral(lex, iri)
			}
		}
		return rdf.NewTypedLiteral(lex, dt.text)
	}
	return rdf.NewLiteral(lex)
}

func numberTerm(text string) rdf.Term {
	if strings.ContainsAny(text, ".eE") {
		return rdf.NewTypedLiteral(text, rdf.XSDDouble)
	}
	return rdf.NewTypedLiteral(text, rdf.XSDInteger)
}

func (p *parser) expandPName(t token) (string, error) {
	parts := strings.SplitN(t.text, ":", 2)
	base, ok := p.prefixes[parts[0]]
	if !ok {
		return "", p.errf(t, "undeclared prefix %q", parts[0])
	}
	return base + parts[1], nil
}

func (p *parser) valuesBlock() (InlineData, error) {
	var d InlineData
	switch {
	case p.peek().kind == tokVar:
		d.Vars = []string{p.advance().text}
		if err := p.expectPunct("{"); err != nil {
			return d, err
		}
		for !p.eatPunct("}") {
			t, err := p.valuesTerm()
			if err != nil {
				return d, err
			}
			d.Rows = append(d.Rows, []rdf.Term{t})
		}
	case p.atPunct("("):
		p.advance()
		for p.peek().kind == tokVar {
			d.Vars = append(d.Vars, p.advance().text)
		}
		if err := p.expectPunct(")"); err != nil {
			return d, err
		}
		if err := p.expectPunct("{"); err != nil {
			return d, err
		}
		for !p.eatPunct("}") {
			rowTok := p.peek()
			if err := p.expectPunct("("); err != nil {
				return d, err
			}
			var row []rdf.Term
			for !p.eatPunct(")") {
				t, err := p.valuesTerm()
				if err != nil {
					return d, err
				}
				row = append(row, t)
			}
			if len(row) != len(d.Vars) {
				return d, p.errf(rowTok, "VALUES row has %d terms, want %d", len(row), len(d.Vars))
			}
			d.Rows = append(d.Rows, row)
		}
	default:
		return d, p.errf(p.peek(), "expected variable or '(' after VALUES, got %s", p.peek())
	}
	return d, nil
}

// valuesTerm parses one term in a VALUES data block; UNDEF yields the zero Term.
func (p *parser) valuesTerm() (rdf.Term, error) {
	t := p.peek()
	switch t.kind {
	case tokKeyword:
		if t.text == "UNDEF" {
			p.advance()
			return rdf.Term{}, nil
		}
		if t.text == "TRUE" || t.text == "FALSE" {
			p.advance()
			return rdf.NewBoolean(t.text == "TRUE"), nil
		}
	case tokIRI:
		p.advance()
		return rdf.NewIRI(t.text), nil
	case tokPName:
		p.advance()
		iri, err := p.expandPName(t)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	case tokString:
		p.advance()
		return p.literalTail(t.text), nil
	case tokNumber:
		p.advance()
		return numberTerm(t.text), nil
	}
	return rdf.Term{}, p.errf(t, "invalid VALUES term %s", t)
}

// filterExpr parses the constraint after FILTER: either a bracketed
// expression, an EXISTS/NOT EXISTS block, or a builtin call.
func (p *parser) filterExpr() (Expr, error) {
	switch {
	case p.atKeyword("NOT"):
		p.advance()
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		g, err := p.groupPattern()
		if err != nil {
			return nil, err
		}
		return ExprExists{Not: true, Group: g}, nil
	case p.atKeyword("EXISTS"):
		p.advance()
		g, err := p.groupPattern()
		if err != nil {
			return nil, err
		}
		return ExprExists{Group: g}, nil
	case p.atPunct("("):
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.peek().kind == tokKeyword:
		return p.primaryExpr()
	}
	return nil, p.errf(p.peek(), "expected FILTER constraint, got %s", p.peek())
}

// Expression grammar with precedence: || < && < comparison < additive <
// multiplicative < unary < primary.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && p.peek().text == "||" {
		p.advance()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = ExprBinary{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && p.peek().text == "&&" {
		p.advance()
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = ExprBinary{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp {
		switch t.text {
		case "=", "!=", "<", "<=", ">", ">=":
			p.advance()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return ExprBinary{Op: t.text, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-") {
			p.advance()
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = ExprBinary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if (t.kind == tokOp && t.text == "/") || (t.kind == tokPunct && t.text == "*") {
			p.advance()
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = ExprBinary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	t := p.peek()
	if t.kind == tokOp && (t.text == "!" || t.text == "-") {
		p.advance()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return ExprUnary{Op: t.text, X: x}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.advance()
		return ExprVar{Name: t.text, Pos: t.pos}, nil
	case tokIRI:
		p.advance()
		return ExprTerm{Term: rdf.NewIRI(t.text)}, nil
	case tokPName:
		p.advance()
		iri, err := p.expandPName(t)
		if err != nil {
			return nil, err
		}
		return ExprTerm{Term: rdf.NewIRI(iri)}, nil
	case tokString:
		p.advance()
		return ExprTerm{Term: p.literalTail(t.text)}, nil
	case tokNumber:
		p.advance()
		return ExprTerm{Term: numberTerm(t.text)}, nil
	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokKeyword:
		switch t.text {
		case "TRUE", "FALSE":
			p.advance()
			return ExprTerm{Term: rdf.NewBoolean(t.text == "TRUE")}, nil
		case "NOT":
			p.advance()
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			g, err := p.groupPattern()
			if err != nil {
				return nil, err
			}
			return ExprExists{Not: true, Group: g}, nil
		case "EXISTS":
			p.advance()
			g, err := p.groupPattern()
			if err != nil {
				return nil, err
			}
			return ExprExists{Group: g}, nil
		default:
			// Builtin function call: NAME '(' args ')'.
			p.advance()
			if err := p.expectPunct("("); err != nil {
				return nil, p.errf(t, "unknown expression %s", t)
			}
			call := ExprCall{Func: t.text}
			for !p.eatPunct(")") {
				if len(call.Args) > 0 {
					if err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			return call, nil
		}
	}
	return nil, p.errf(t, "unexpected token %s in expression", t)
}
