// Package sparql implements the SPARQL subset Lusail needs end to end:
// a lexer, a recursive-descent parser, an abstract syntax tree, and a
// serializer that regenerates query text.
//
// The subset covers SELECT, ASK, and CONSTRUCT forms with basic graph
// patterns, FILTER (including EXISTS / NOT EXISTS with nested sub-SELECTs,
// as used by Lusail's locality check queries), OPTIONAL, UNION, VALUES,
// BIND, DISTINCT, GROUP BY with COUNT/SUM/MIN/MAX/AVG, ORDER BY, and
// LIMIT/OFFSET — everything the paper's query workloads and Lusail's
// generated queries (check queries, COUNT probes, VALUES-bound subqueries)
// require, plus the forms a standalone SPARQL library needs.
package sparql

import (
	"sort"

	"lusail/internal/rdf"
)

// Form distinguishes the query forms we support.
type Form int

const (
	// SelectForm is a SELECT query.
	SelectForm Form = iota
	// AskForm is an ASK query.
	AskForm
	// ConstructForm is a CONSTRUCT query: the WHERE solutions instantiate
	// the Template into an RDF graph.
	ConstructForm
)

// PatternTerm is one position of a triple pattern: either a variable or a
// concrete RDF term.
type PatternTerm struct {
	Var  string   // variable name without the '?' sigil; empty for constants
	Term rdf.Term // the constant term when Var is empty
}

// Var returns a variable pattern term.
func Var(name string) PatternTerm { return PatternTerm{Var: name} }

// Const returns a constant pattern term.
func Const(t rdf.Term) PatternTerm { return PatternTerm{Term: t} }

// IRI returns a constant IRI pattern term.
func IRI(iri string) PatternTerm { return Const(rdf.NewIRI(iri)) }

// IsVar reports whether the pattern term is a variable.
func (p PatternTerm) IsVar() bool { return p.Var != "" }

// TriplePattern is a triple whose positions may be variables.
type TriplePattern struct {
	S, P, O PatternTerm
	// Pos is the byte offset of the subject term in the source text (0 for
	// programmatically built patterns). It is ignored by String and by
	// equality-style helpers; StripPositions zeroes it.
	Pos int
}

// Vars returns the variable names used in the pattern, in S, P, O order,
// without duplicates.
func (tp TriplePattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
		if pt.IsVar() && !seen[pt.Var] {
			seen[pt.Var] = true
			out = append(out, pt.Var)
		}
	}
	return out
}

// HasVar reports whether the pattern mentions the variable v.
func (tp TriplePattern) HasVar(v string) bool {
	return tp.S.Var == v || tp.P.Var == v || tp.O.Var == v
}

// Element is one syntactic element of a group graph pattern.
type Element interface{ element() }

func (TriplePattern) element() {}
func (Filter) element()        {}
func (Optional) element()      {}
func (Union) element()         {}
func (SubSelect) element()     {}
func (InlineData) element()    {}
func (Bind) element()          {}

// Filter is a FILTER constraint.
type Filter struct {
	Expr Expr
	// Pos is the byte offset of the FILTER keyword in the source text.
	Pos int
}

// Optional is an OPTIONAL { ... } block.
type Optional struct {
	Group *GroupPattern
	// Pos is the byte offset of the OPTIONAL keyword in the source text.
	Pos int
}

// Union is a chain of alternation branches: A UNION B UNION C.
type Union struct {
	Branches []*GroupPattern
	// Pos is the byte offset of the first branch in the source text.
	Pos int
}

// SubSelect is a nested SELECT query inside a group pattern.
type SubSelect struct {
	Query *Query
	// Pos is the byte offset of the nested SELECT in the source text.
	Pos int
}

// InlineData is a VALUES block. A zero rdf.Term in a row means UNDEF.
type InlineData struct {
	Vars []string
	Rows [][]rdf.Term
	// Pos is the byte offset of the VALUES keyword in the source text.
	Pos int
}

// Bind is a BIND(expr AS ?var) assignment.
type Bind struct {
	Var  string
	Expr Expr
	// Pos is the byte offset of the BIND keyword in the source text.
	Pos int
}

// GroupPattern is a group graph pattern: an ordered list of elements.
type GroupPattern struct {
	Elements []Element
	// Pos is the byte offset of the opening brace in the source text.
	Pos int
}

// TriplePatterns returns the basic graph pattern triples that are direct
// children of this group (not descending into OPTIONAL/UNION/sub-selects).
func (g *GroupPattern) TriplePatterns() []TriplePattern {
	var out []TriplePattern
	for _, e := range g.Elements {
		if tp, ok := e.(TriplePattern); ok {
			out = append(out, tp)
		}
	}
	return out
}

// AllTriplePatterns returns every triple pattern in the group, descending
// into OPTIONAL, UNION, and sub-select blocks.
func (g *GroupPattern) AllTriplePatterns() []TriplePattern {
	var out []TriplePattern
	g.walk(func(tp TriplePattern) { out = append(out, tp) })
	return out
}

func (g *GroupPattern) walk(fn func(TriplePattern)) {
	for _, e := range g.Elements {
		switch e := e.(type) {
		case TriplePattern:
			fn(e)
		case Optional:
			e.Group.walk(fn)
		case Union:
			for _, b := range e.Branches {
				b.walk(fn)
			}
		case SubSelect:
			e.Query.Where.walk(fn)
		}
	}
}

// Vars returns all variables mentioned by triple patterns, VALUES blocks and
// BINDs anywhere in the group, sorted.
func (g *GroupPattern) Vars() []string {
	seen := map[string]bool{}
	g.walk(func(tp TriplePattern) {
		for _, v := range tp.Vars() {
			seen[v] = true
		}
	})
	var collect func(gr *GroupPattern)
	collect = func(gr *GroupPattern) {
		for _, e := range gr.Elements {
			switch e := e.(type) {
			case InlineData:
				for _, v := range e.Vars {
					seen[v] = true
				}
			case Bind:
				seen[e.Var] = true
			case Optional:
				collect(e.Group)
			case Union:
				for _, b := range e.Branches {
					collect(b)
				}
			}
		}
	}
	collect(g)
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Projection is one item of a SELECT projection: a plain variable or an
// aggregate bound to an output variable.
type Projection struct {
	Var string     // output variable name
	Agg *Aggregate // nil for a plain variable projection
	// Pos is the byte offset of the projection item in the source text.
	Pos int
}

// Aggregate is an aggregate function application (COUNT is what Lusail's
// cardinality probes need; SUM/MIN/MAX/AVG come along for completeness).
type Aggregate struct {
	Func     string // COUNT, SUM, MIN, MAX, AVG
	Distinct bool
	Var      string // argument variable; empty means '*' (COUNT only)
}

// OrderCond is one ORDER BY condition.
type OrderCond struct {
	Var  string
	Desc bool
	// Pos is the byte offset of the condition in the source text.
	Pos int
}

// Query is a parsed SPARQL query.
type Query struct {
	Form       Form
	Prefixes   map[string]string // kept for serialization fidelity
	Distinct   bool
	Star       bool // SELECT *
	Projection []Projection
	Where      *GroupPattern
	Template   []TriplePattern // CONSTRUCT template (ConstructForm only)
	GroupBy    []string        // GROUP BY variables (empty: implicit single group)
	OrderBy    []OrderCond
	Limit      int // -1 means absent
	Offset     int // 0 means absent
}

// NewSelect returns a SELECT query skeleton with no limit.
func NewSelect(vars ...string) *Query {
	q := &Query{Form: SelectForm, Where: &GroupPattern{}, Limit: -1}
	for _, v := range vars {
		q.Projection = append(q.Projection, Projection{Var: v})
	}
	return q
}

// NewCount returns SELECT (COUNT(*) AS ?v) WHERE { elems }.
func NewCount(v string, elems ...Element) *Query {
	q := &Query{Form: SelectForm, Where: &GroupPattern{Elements: elems}, Limit: -1}
	q.Projection = []Projection{{Var: v, Agg: &Aggregate{Func: "COUNT"}}}
	return q
}

// NewAsk returns an ASK query skeleton.
func NewAsk() *Query {
	return &Query{Form: AskForm, Where: &GroupPattern{}, Limit: -1}
}

// ProjectedVars returns the output variable names of the query. For
// SELECT * it returns all variables of the WHERE clause.
func (q *Query) ProjectedVars() []string {
	if q.Star || len(q.Projection) == 0 {
		return q.Where.Vars()
	}
	out := make([]string, len(q.Projection))
	for i, p := range q.Projection {
		out[i] = p.Var
	}
	return out
}

// HasAggregates reports whether any projection is an aggregate.
func (q *Query) HasAggregates() bool {
	for _, p := range q.Projection {
		if p.Agg != nil {
			return true
		}
	}
	return false
}

// Expr is a SPARQL filter expression node.
type Expr interface{ exprNode() }

// ExprVar references a variable's bound value. Pos is the byte offset of
// the variable in the source text (0 when built programmatically).
type ExprVar struct {
	Name string
	Pos  int
}

// ExprTerm is a constant term.
type ExprTerm struct{ Term rdf.Term }

// ExprBinary applies a binary operator: || && = != < <= > >= + - * /.
type ExprBinary struct {
	Op   string
	L, R Expr
}

// ExprUnary applies a unary operator: ! or -.
type ExprUnary struct {
	Op string
	X  Expr
}

// ExprCall applies a builtin function such as BOUND, STR, REGEX, CONTAINS.
type ExprCall struct {
	Func string
	Args []Expr
}

// ExprExists is FILTER (NOT) EXISTS { ... }.
type ExprExists struct {
	Not   bool
	Group *GroupPattern
}

func (ExprVar) exprNode()    {}
func (ExprTerm) exprNode()   {}
func (ExprBinary) exprNode() {}
func (ExprUnary) exprNode()  {}
func (ExprCall) exprNode()   {}
func (ExprExists) exprNode() {}

// ExprVars returns the variables referenced by an expression, excluding
// those only mentioned inside EXISTS blocks (which scope their own group).
func ExprVars(e Expr) []string {
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case ExprVar:
			seen[e.Name] = true
		case ExprBinary:
			walk(e.L)
			walk(e.R)
		case ExprUnary:
			walk(e.X)
		case ExprCall:
			for _, a := range e.Args {
				walk(a)
			}
		}
	}
	walk(e)
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Conjuncts splits an expression on its top-level && into its conjuncts.
// FILTER(A && B) keeps exactly the rows FILTER(A) FILTER(B) keeps: under
// SPARQL's error rules a conjunction is true only when both sides are.
func Conjuncts(x Expr) []Expr {
	if b, ok := x.(ExprBinary); ok && b.Op == "&&" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{x}
}

// ExistsGroups returns the groups of the EXISTS blocks in the expression,
// left to right; none when EXISTS occurs nowhere in it.
func ExistsGroups(x Expr) []*GroupPattern {
	switch x := x.(type) {
	case ExprExists:
		return []*GroupPattern{x.Group}
	case ExprBinary:
		return append(ExistsGroups(x.L), ExistsGroups(x.R)...)
	case ExprUnary:
		return ExistsGroups(x.X)
	case ExprCall:
		var out []*GroupPattern
		for _, a := range x.Args {
			out = append(out, ExistsGroups(a)...)
		}
		return out
	}
	return nil
}

// KeyEquality recognizes the equalities a join can key on: STR(?a) =
// STR(?b), true exactly when both are bound and their lexical forms are
// equal (str is true), and sameTerm(?a, ?b), true exactly when both hold
// one term. It returns the two distinct variables. A plain ?a = ?b is no
// key equality: it compares values, and 1 = 1.0 holds between different
// terms and lexical forms.
func KeyEquality(x Expr) (a, b string, str, ok bool) {
	switch x := x.(type) {
	case ExprBinary:
		if x.Op == "=" {
			a, okA := strVar(x.L)
			b, okB := strVar(x.R)
			if okA && okB && a != b {
				return a, b, true, true
			}
		}
	case ExprCall:
		if x.Func == "SAMETERM" && len(x.Args) == 2 {
			va, okA := x.Args[0].(ExprVar)
			vb, okB := x.Args[1].(ExprVar)
			if okA && okB && va.Name != vb.Name {
				return va.Name, vb.Name, false, true
			}
		}
	}
	return "", "", false, false
}

// strVar returns v for the expression STR(?v).
func strVar(x Expr) (string, bool) {
	c, ok := x.(ExprCall)
	if !ok || c.Func != "STR" || len(c.Args) != 1 {
		return "", false
	}
	v, ok := c.Args[0].(ExprVar)
	return v.Name, ok
}
