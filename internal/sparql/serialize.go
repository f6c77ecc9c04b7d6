package sparql

import (
	"fmt"
	"strconv"
	"strings"
)

// String renders the query as SPARQL text. The output always uses absolute
// IRIs (prefixes are expanded at parse time), so it parses identically
// anywhere regardless of prefix declarations.
func (q *Query) String() string {
	var b strings.Builder
	q.write(&b)
	return b.String()
}

func (q *Query) write(b *strings.Builder) {
	switch q.Form {
	case AskForm:
		b.WriteString("ASK ")
	case ConstructForm:
		b.WriteString("CONSTRUCT { ")
		for _, tp := range q.Template {
			b.WriteString(tp.String())
			b.WriteString(" . ")
		}
		b.WriteString("} ")
	default:
		b.WriteString("SELECT ")
		if q.Distinct {
			b.WriteString("DISTINCT ")
		}
		switch {
		case q.Star || len(q.Projection) == 0:
			b.WriteString("* ")
		default:
			for _, p := range q.Projection {
				if p.Agg != nil {
					b.WriteString("(")
					b.WriteString(p.Agg.Func)
					b.WriteString("(")
					if p.Agg.Distinct {
						b.WriteString("DISTINCT ")
					}
					if p.Agg.Var == "" {
						b.WriteString("*")
					} else {
						b.WriteString("?" + p.Agg.Var)
					}
					b.WriteString(") AS ?")
					b.WriteString(p.Var)
					b.WriteString(") ")
				} else {
					b.WriteString("?" + p.Var + " ")
				}
			}
		}
	}
	b.WriteString("WHERE ")
	q.Where.write(b)
	for i, v := range q.GroupBy {
		if i == 0 {
			b.WriteString(" GROUP BY")
		}
		b.WriteString(" ?" + v)
	}
	for i, oc := range q.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY")
		}
		if oc.Desc {
			b.WriteString(" DESC(?" + oc.Var + ")")
		} else {
			b.WriteString(" ?" + oc.Var)
		}
	}
	if q.Limit >= 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(q.Limit))
	}
	if q.Offset > 0 {
		b.WriteString(" OFFSET ")
		b.WriteString(strconv.Itoa(q.Offset))
	}
}

// String renders the group pattern including its braces.
func (g *GroupPattern) String() string {
	var b strings.Builder
	g.write(&b)
	return b.String()
}

func (g *GroupPattern) write(b *strings.Builder) {
	b.WriteString("{ ")
	for _, e := range g.Elements {
		switch e := e.(type) {
		case TriplePattern:
			b.WriteString(e.String())
			b.WriteString(" . ")
		case Filter:
			b.WriteString("FILTER ")
			writeFilterConstraint(b, e.Expr)
			b.WriteString(" . ")
		case Optional:
			b.WriteString("OPTIONAL ")
			e.Group.write(b)
			b.WriteString(" . ")
		case Union:
			for i, br := range e.Branches {
				if i > 0 {
					b.WriteString(" UNION ")
				}
				br.write(b)
			}
			b.WriteString(" . ")
		case SubSelect:
			b.WriteString("{ ")
			e.Query.write(b)
			b.WriteString(" } . ")
		case InlineData:
			writeValues(b, e)
			b.WriteString(" . ")
		case Bind:
			b.WriteString("BIND(")
			writeExpr(b, e.Expr)
			b.WriteString(" AS ?" + e.Var + ") . ")
		}
	}
	b.WriteString("}")
}

func writeValues(b *strings.Builder, d InlineData) {
	b.WriteString("VALUES (")
	for i, v := range d.Vars {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("?" + v)
	}
	b.WriteString(") { ")
	for _, row := range d.Rows {
		b.WriteString("(")
		for i, t := range row {
			if i > 0 {
				b.WriteByte(' ')
			}
			if t.IsZero() {
				b.WriteString("UNDEF")
			} else {
				b.WriteString(t.String())
			}
		}
		b.WriteString(") ")
	}
	b.WriteString("}")
}

// String renders the pattern term in SPARQL syntax.
func (p PatternTerm) String() string {
	if p.IsVar() {
		return "?" + p.Var
	}
	return p.Term.String()
}

// String renders the triple pattern without a trailing dot.
func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s", tp.S, tp.P, tp.O)
}

// PatternKey renders patterns, separated by "|", with each variable renamed
// ?vN on its first occurrence, N counting the names given so far, so that
// patterns equal up to variable names share a key while a variable that
// repeats, within a pattern or across them, keeps its join structure.
// names seeds reserved names, such as a join variable's; it may be nil.
func PatternKey(names map[string]string, tps ...TriplePattern) string {
	if names == nil {
		names = map[string]string{}
	}
	keys := make([]string, len(tps))
	for i, tp := range tps {
		var terms [3]string
		for k, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
			if !pt.IsVar() {
				terms[k] = pt.Term.String()
				continue
			}
			if _, ok := names[pt.Var]; !ok {
				names[pt.Var] = fmt.Sprintf("?v%d", len(names))
			}
			terms[k] = names[pt.Var]
		}
		keys[i] = strings.Join(terms[:], " ")
	}
	return strings.Join(keys, "|")
}

// writeFilterConstraint writes an expression in FILTER position: EXISTS
// blocks appear bare, everything else is parenthesized.
func writeFilterConstraint(b *strings.Builder, e Expr) {
	if ex, ok := e.(ExprExists); ok {
		writeExists(b, ex)
		return
	}
	b.WriteString("(")
	writeExpr(b, e)
	b.WriteString(")")
}

func writeExists(b *strings.Builder, ex ExprExists) {
	if ex.Not {
		b.WriteString("NOT ")
	}
	b.WriteString("EXISTS ")
	ex.Group.write(b)
}

func writeExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case ExprVar:
		b.WriteString("?" + e.Name)
	case ExprTerm:
		b.WriteString(e.Term.String())
	case ExprBinary:
		b.WriteString("(")
		writeExpr(b, e.L)
		b.WriteString(" " + e.Op + " ")
		writeExpr(b, e.R)
		b.WriteString(")")
	case ExprUnary:
		b.WriteString(e.Op)
		b.WriteString("(")
		writeExpr(b, e.X)
		b.WriteString(")")
	case ExprCall:
		b.WriteString(e.Func)
		b.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a)
		}
		b.WriteString(")")
	case ExprExists:
		writeExists(b, e)
	}
}

// ExprString renders an expression as SPARQL text.
func ExprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}
