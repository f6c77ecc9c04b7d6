// Package expr owns the semantics of SPARQL expressions: FILTER and BIND
// evaluation, effective boolean values, and constant folding. The endpoint
// evaluator (internal/eval) runs it on the rows of its store, the
// federated operators (internal/op) on joined rows, and static analysis
// (internal/sparql/sema) on ground expressions, so a filter means the same
// thing wherever it is evaluated.
package expr

import (
	"fmt"
	"regexp"
	"strings"
	"sync"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// errExpr signals a SPARQL expression evaluation error; per the spec, a
// FILTER whose expression errors removes the solution.
var errExpr = fmt.Errorf("expression error")

// Binding is what an expression reads variables from: a row of a query
// being evaluated, or a plain map (Holds, ConstEval).
type Binding interface {
	// Get returns the term bound to v.
	Get(v string) (rdf.Term, bool)
	// Exists evaluates an EXISTS block with the binding's variables in
	// scope.
	Exists(g *sparql.GroupPattern) (bool, error)
}

// varMap is a binding outside any graph: an EXISTS block is an
// expression error on it.
type varMap map[string]rdf.Term

func (m varMap) Get(v string) (rdf.Term, bool) {
	t, ok := m[v]
	return t, ok
}

func (varMap) Exists(*sparql.GroupPattern) (bool, error) { return false, errExpr }

// EBV evaluates an expression and converts it to its effective boolean
// value.
func EBV(x sparql.Expr, b Binding) (bool, error) {
	t, err := Eval(x, b)
	if err != nil {
		return false, err
	}
	return ebv(t)
}

// ebv implements SPARQL's effective boolean value rules.
func ebv(t rdf.Term) (bool, error) {
	if t.Kind != rdf.Literal {
		return false, errExpr
	}
	if v, ok := t.Bool(); ok {
		return v, nil
	}
	if t.Datatype == rdf.XSDBoolean {
		return false, errExpr // malformed boolean
	}
	if f, ok := t.Numeric(); ok && t.Datatype != "" {
		return f != 0, nil
	}
	if t.Datatype == "" || t.Datatype == rdf.XSDString {
		return t.Value != "", nil
	}
	return false, errExpr
}

// Eval evaluates an expression to an RDF term. Boolean results are
// xsd:boolean literals.
func Eval(x sparql.Expr, b Binding) (rdf.Term, error) {
	switch x := x.(type) {
	case sparql.ExprTerm:
		return x.Term, nil
	case sparql.ExprVar:
		t, ok := b.Get(x.Name)
		if !ok {
			return rdf.Term{}, errExpr
		}
		return t, nil
	case sparql.ExprUnary:
		return evalUnary(x, b)
	case sparql.ExprBinary:
		return evalBinary(x, b)
	case sparql.ExprCall:
		return evalCall(x, b)
	case sparql.ExprExists:
		found, err := b.Exists(x.Group)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(found != x.Not), nil
	}
	return rdf.Term{}, fmt.Errorf("expr: unsupported expression %T", x)
}

func evalUnary(x sparql.ExprUnary, b Binding) (rdf.Term, error) {
	switch x.Op {
	case "!":
		v, err := EBV(x.X, b)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(!v), nil
	case "-":
		t, err := Eval(x.X, b)
		if err != nil {
			return rdf.Term{}, err
		}
		f, ok := t.Numeric()
		if !ok {
			return rdf.Term{}, errExpr
		}
		return rdf.NewDouble(-f), nil
	}
	return rdf.Term{}, fmt.Errorf("expr: unsupported unary %q", x.Op)
}

func evalBinary(x sparql.ExprBinary, b Binding) (rdf.Term, error) {
	switch x.Op {
	case "&&":
		l, err := EBV(x.L, b)
		if err == nil && !l {
			return rdf.NewBoolean(false), nil
		}
		r, rerr := EBV(x.R, b)
		if rerr == nil && !r {
			return rdf.NewBoolean(false), nil
		}
		if err != nil {
			return rdf.Term{}, err
		}
		if rerr != nil {
			return rdf.Term{}, rerr
		}
		return rdf.NewBoolean(true), nil
	case "||":
		l, err := EBV(x.L, b)
		if err == nil && l {
			return rdf.NewBoolean(true), nil
		}
		r, rerr := EBV(x.R, b)
		if rerr == nil && r {
			return rdf.NewBoolean(true), nil
		}
		if err != nil {
			return rdf.Term{}, err
		}
		if rerr != nil {
			return rdf.Term{}, rerr
		}
		return rdf.NewBoolean(false), nil
	}

	l, err := Eval(x.L, b)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := Eval(x.R, b)
	if err != nil {
		return rdf.Term{}, err
	}

	switch x.Op {
	case "=", "!=":
		eq, err := termsEqual(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		if x.Op == "!=" {
			eq = !eq
		}
		return rdf.NewBoolean(eq), nil
	case "<", "<=", ">", ">=":
		c, err := compareTerms(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		var v bool
		switch x.Op {
		case "<":
			v = c < 0
		case "<=":
			v = c <= 0
		case ">":
			v = c > 0
		case ">=":
			v = c >= 0
		}
		return rdf.NewBoolean(v), nil
	case "+", "-", "*", "/":
		lf, lok := l.Numeric()
		rf, rok := r.Numeric()
		if !lok || !rok {
			return rdf.Term{}, errExpr
		}
		var v float64
		switch x.Op {
		case "+":
			v = lf + rf
		case "-":
			v = lf - rf
		case "*":
			v = lf * rf
		case "/":
			if rf == 0 {
				return rdf.Term{}, errExpr
			}
			v = lf / rf
		}
		if v == float64(int64(v)) && l.Datatype == rdf.XSDInteger && r.Datatype == rdf.XSDInteger && x.Op != "/" {
			return rdf.NewInteger(int64(v)), nil
		}
		return rdf.NewDouble(v), nil
	}
	return rdf.Term{}, fmt.Errorf("expr: unsupported binary op %q", x.Op)
}

// termsEqual implements SPARQL '=' semantics: numeric value comparison for
// numeric literals, term equality otherwise.
func termsEqual(l, r rdf.Term) (bool, error) {
	if lf, ok := l.Numeric(); ok && l.Datatype != "" {
		if rf, ok := r.Numeric(); ok && r.Datatype != "" {
			return lf == rf, nil
		}
	}
	return l == r, nil
}

// compareTerms orders two terms for </<=/>/>=: numerics by value, strings by
// code point; comparing across kinds is an error.
func compareTerms(l, r rdf.Term) (int, error) {
	if lf, ok := l.Numeric(); ok {
		if rf, ok := r.Numeric(); ok {
			switch {
			case lf < rf:
				return -1, nil
			case lf > rf:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if l.Kind == rdf.Literal && r.Kind == rdf.Literal {
		return strings.Compare(l.Value, r.Value), nil
	}
	if l.Kind == rdf.IRI && r.Kind == rdf.IRI {
		return strings.Compare(l.Value, r.Value), nil
	}
	return 0, errExpr
}

var (
	regexCacheMu sync.Mutex
	regexCache   = map[string]*regexp.Regexp{}
)

func compileRegex(pattern, flags string) (*regexp.Regexp, error) {
	key := flags + "\x00" + pattern
	regexCacheMu.Lock()
	defer regexCacheMu.Unlock()
	if re, ok := regexCache[key]; ok {
		return re, nil
	}
	p := pattern
	if strings.Contains(flags, "i") {
		p = "(?i)" + p
	}
	re, err := regexp.Compile(p)
	if err != nil {
		return nil, errExpr
	}
	if len(regexCache) > 1024 {
		regexCache = map[string]*regexp.Regexp{}
	}
	regexCache[key] = re
	return re, nil
}

func evalCall(x sparql.ExprCall, b Binding) (rdf.Term, error) {
	arg := func(i int) (rdf.Term, error) {
		if i >= len(x.Args) {
			return rdf.Term{}, errExpr
		}
		return Eval(x.Args[i], b)
	}
	switch x.Func {
	case "BOUND":
		if len(x.Args) != 1 {
			return rdf.Term{}, errExpr
		}
		v, ok := x.Args[0].(sparql.ExprVar)
		if !ok {
			return rdf.Term{}, errExpr
		}
		_, bound := b.Get(v.Name)
		return rdf.NewBoolean(bound), nil
	case "STR":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(t.Value), nil
	case "LANG":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		if t.Kind != rdf.Literal {
			return rdf.Term{}, errExpr
		}
		return rdf.NewLiteral(t.Lang), nil
	case "DATATYPE":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		if t.Kind != rdf.Literal {
			return rdf.Term{}, errExpr
		}
		dt := t.Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return rdf.NewIRI(dt), nil
	case "ISIRI", "ISURI":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(t.Kind == rdf.IRI), nil
	case "ISLITERAL":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(t.Kind == rdf.Literal), nil
	case "ISBLANK":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(t.Kind == rdf.Blank), nil
	case "STRLEN":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewInteger(int64(len([]rune(t.Value)))), nil
	case "UCASE":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(strings.ToUpper(t.Value)), nil
	case "LCASE":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(strings.ToLower(t.Value)), nil
	case "CONTAINS", "STRSTARTS", "STRENDS":
		t1, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		t2, err := arg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		var v bool
		switch x.Func {
		case "CONTAINS":
			v = strings.Contains(t1.Value, t2.Value)
		case "STRSTARTS":
			v = strings.HasPrefix(t1.Value, t2.Value)
		case "STRENDS":
			v = strings.HasSuffix(t1.Value, t2.Value)
		}
		return rdf.NewBoolean(v), nil
	case "REGEX":
		t, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		pat, err := arg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		flags := ""
		if len(x.Args) >= 3 {
			f, err := arg(2)
			if err != nil {
				return rdf.Term{}, err
			}
			flags = f.Value
		}
		re, err := compileRegex(pat.Value, flags)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(re.MatchString(t.Value)), nil
	case "SAMETERM":
		t1, err := arg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		t2, err := arg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(t1 == t2), nil
	}
	return rdf.Term{}, fmt.Errorf("expr: unsupported function %s", x.Func)
}

// Holds reports whether a filter expression is true on a binding outside
// any graph, as the federated engines apply filters to joined rows. Per
// SPARQL semantics, an erroring expression counts as false.
func Holds(x sparql.Expr, b map[string]rdf.Term) bool {
	ok, err := EBV(x, varMap(b))
	return err == nil && ok
}

// ErrNonConst is returned by ConstEval and ConstEBV for expressions that
// reference variables or EXISTS blocks: their value depends on the binding
// or the graph, so they cannot be folded at plan time.
var ErrNonConst = fmt.Errorf("expr: expression is not constant")

// ConstEval evaluates a ground expression — one with no variable references
// and no EXISTS blocks — to a constant term, using the same semantics the
// engine applies at run time. Static analysis (internal/sparql/sema) uses
// it for constant folding, so folded filters cannot diverge from what
// execution would have computed. A non-ErrNonConst error is a SPARQL
// expression error: in FILTER position it removes every row.
func ConstEval(x sparql.Expr) (rdf.Term, error) {
	if !exprIsConst(x) {
		return rdf.Term{}, ErrNonConst
	}
	return Eval(x, varMap(nil))
}

// ConstEBV is ConstEval followed by the effective-boolean-value conversion
// a FILTER applies to its constraint.
func ConstEBV(x sparql.Expr) (bool, error) {
	if !exprIsConst(x) {
		return false, ErrNonConst
	}
	return EBV(x, varMap(nil))
}

// exprIsConst reports whether the expression is ground: no variables and no
// EXISTS blocks (EXISTS depends on the graph even when it mentions no
// outer variables). All supported builtins are deterministic, so ground
// implies constant.
func exprIsConst(x sparql.Expr) bool {
	switch x := x.(type) {
	case sparql.ExprTerm:
		return true
	case sparql.ExprVar:
		return false
	case sparql.ExprExists:
		return false
	case sparql.ExprUnary:
		return exprIsConst(x.X)
	case sparql.ExprBinary:
		return exprIsConst(x.L) && exprIsConst(x.R)
	case sparql.ExprCall:
		for _, a := range x.Args {
			if !exprIsConst(a) {
				return false
			}
		}
		return true
	}
	return false
}
