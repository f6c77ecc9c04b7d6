package sema

import (
	"errors"
	"sort"
	"strings"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/sparql/expr"
)

// possibleVars collects every variable the group can bind in some
// solution: triple patterns, VALUES, BIND outputs, OPTIONAL bodies, UNION
// branches — and for sub-selects only the projected variables, which is
// what distinguishes this from GroupPattern.Vars (sub-select internals are
// out of scope for the enclosing group).
func possibleVars(g *sparql.GroupPattern, into map[string]bool) {
	if g == nil {
		return
	}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case sparql.TriplePattern:
			for _, v := range e.Vars() {
				into[v] = true
			}
		case sparql.Optional:
			possibleVars(e.Group, into)
		case sparql.Union:
			for _, b := range e.Branches {
				possibleVars(b, into)
			}
		case sparql.SubSelect:
			for _, v := range e.Query.ProjectedVars() {
				into[v] = true
			}
		case sparql.InlineData:
			for _, v := range e.Vars {
				into[v] = true
			}
		case sparql.Bind:
			into[e.Var] = true
		}
	}
}

// requiredVars is possibleVars restricted to the group's non-OPTIONAL
// elements: the variables the required part of the group can bind.
func requiredVars(g *sparql.GroupPattern) map[string]bool {
	out := map[string]bool{}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case sparql.TriplePattern:
			for _, v := range e.Vars() {
				out[v] = true
			}
		case sparql.Union:
			for _, b := range e.Branches {
				possibleVars(b, out)
			}
		case sparql.SubSelect:
			for _, v := range e.Query.ProjectedVars() {
				out[v] = true
			}
		case sparql.InlineData:
			for _, v := range e.Vars {
				out[v] = true
			}
		case sparql.Bind:
			out[e.Var] = true
		}
	}
	return out
}

// varsOutsideBound returns the variables an expression uses positionally —
// excluding occurrences that appear only as the argument of BOUND(...),
// whose entire point is to test an unbound variable, and excluding
// EXISTS-scoped variables (the EXISTS group binds its own).
func varsOutsideBound(x sparql.Expr) []string {
	seen := map[string]bool{}
	var walk func(sparql.Expr)
	walk = func(x sparql.Expr) {
		switch e := x.(type) {
		case sparql.ExprVar:
			seen[e.Name] = true
		case sparql.ExprBinary:
			walk(e.L)
			walk(e.R)
		case sparql.ExprUnary:
			walk(e.X)
		case sparql.ExprCall:
			if strings.EqualFold(e.Func, "BOUND") {
				return
			}
			for _, a := range e.Args {
				walk(a)
			}
		}
	}
	walk(x)
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// forEachGroup visits every group pattern in the query — the WHERE clause,
// OPTIONAL bodies, UNION branches, EXISTS blocks, and sub-select WHEREs —
// passing the set of variables inherited from the enclosing scope.
// Per SPARQL semantics only two constructs see enclosing bindings: a
// FILTER directly inside an OPTIONAL group becomes the left-join condition
// and sees the left side, and EXISTS blocks are evaluated under the
// current solution. Nested plain groups, UNION branches, and sub-selects
// evaluate against fresh scope.
func forEachGroup(q *sparql.Query, visit func(g *sparql.GroupPattern, inherited map[string]bool)) {
	var walkGroup func(g *sparql.GroupPattern, inherited map[string]bool)
	var walkExpr func(x sparql.Expr, scope map[string]bool)

	walkExpr = func(x sparql.Expr, scope map[string]bool) {
		switch e := x.(type) {
		case sparql.ExprBinary:
			walkExpr(e.L, scope)
			walkExpr(e.R, scope)
		case sparql.ExprUnary:
			walkExpr(e.X, scope)
		case sparql.ExprCall:
			for _, a := range e.Args {
				walkExpr(a, scope)
			}
		case sparql.ExprExists:
			walkGroup(e.Group, scope)
		}
	}

	walkGroup = func(g *sparql.GroupPattern, inherited map[string]bool) {
		if g == nil {
			return
		}
		visit(g, inherited)
		scope := map[string]bool{}
		for v := range inherited {
			scope[v] = true
		}
		possibleVars(g, scope)
		for _, el := range g.Elements {
			switch e := el.(type) {
			case sparql.Filter:
				walkExpr(e.Expr, scope)
			case sparql.Optional:
				walkGroup(e.Group, scope)
			case sparql.Union:
				for _, b := range e.Branches {
					walkGroup(b, nil)
				}
			case sparql.SubSelect:
				forEachGroupInQuery(e.Query, walkGroup)
			case sparql.Bind:
				walkExpr(e.Expr, scope)
			}
		}
	}
	forEachGroupInQuery(q, walkGroup)
}

func forEachGroupInQuery(q *sparql.Query, walkGroup func(*sparql.GroupPattern, map[string]bool)) {
	walkGroup(q.Where, nil)
}

// checkUnboundVar flags variables used where SPARQL semantics silently
// swallow the mistake: a FILTER over a variable its group never binds
// errors on every row and removes all of them (error tier); projected and
// aggregated variables never bound yield an always-empty column (error
// tier); ORDER BY / GROUP BY / CONSTRUCT-template variables never bound
// order or group by nothing (warning tier).
var checkUnboundVar = &Check{
	Name:     "unboundvar",
	Severity: sparql.SevError,
	Doc: "variable used in FILTER, SELECT, ORDER BY, GROUP BY, or a CONSTRUCT template\n" +
		"but never bound by any pattern in its scope. Per SPARQL semantics a FILTER over\n" +
		"an unbound variable errors and removes every row, and an unbound projection is\n" +
		"an always-empty column — the query runs, returns nothing useful, and burns\n" +
		"endpoint traffic doing it.",
	Run: func(p *Pass) {
		q := p.Query

		// FILTERs: checked group by group, because a filter only sees its
		// own group's bindings (plus the left side when it is the condition
		// of an OPTIONAL, plus the enclosing solution inside EXISTS).
		forEachGroup(q, func(g *sparql.GroupPattern, inherited map[string]bool) {
			scope := map[string]bool{}
			for v := range inherited {
				scope[v] = true
			}
			possibleVars(g, scope)
			for _, el := range g.Elements {
				f, ok := el.(sparql.Filter)
				if !ok {
					continue
				}
				for _, v := range varsOutsideBound(f.Expr) {
					if !scope[v] {
						p.Reportf(f.Pos, "FILTER references ?%s, which is never bound in its group: the constraint errors on every row and removes all of them", v)
					}
				}
			}
		})

		whereVars := map[string]bool{}
		possibleVars(q.Where, whereVars)

		outputs := map[string]bool{}
		for _, pr := range q.Projection {
			outputs[pr.Var] = true
			if pr.Agg == nil {
				if !whereVars[pr.Var] {
					p.Reportf(pr.Pos, "SELECT projects ?%s, which is never bound in the WHERE clause: the column is always empty", pr.Var)
				}
			} else if pr.Agg.Var != "" && !whereVars[pr.Agg.Var] {
				p.Reportf(pr.Pos, "aggregate %s(?%s) reads a variable never bound in the WHERE clause", pr.Agg.Func, pr.Agg.Var)
			}
		}
		for _, oc := range q.OrderBy {
			if !whereVars[oc.Var] && !outputs[oc.Var] {
				p.ReportfSeverity(sparql.SevWarning, oc.Pos, "ORDER BY ?%s, which is never bound: every row sorts equal", oc.Var)
			}
		}
		for _, gv := range q.GroupBy {
			if !whereVars[gv] {
				p.ReportfSeverity(sparql.SevWarning, q.Where.Pos, "GROUP BY ?%s, which is never bound: all rows collapse into one group", gv)
			}
		}
		for _, tp := range q.Template {
			for _, v := range tp.Vars() {
				if !whereVars[v] {
					p.ReportfSeverity(sparql.SevWarning, tp.Pos, "CONSTRUCT template uses ?%s, which is never bound: its triples are never emitted", v)
				}
			}
		}
	},
}

// joinNode is one union-find node for the cartesian check: an element of
// the group's join with the variables it links, and whether it contributes
// rows (VALUES, BIND and key-equality filters only link).
type joinNode struct {
	vars    []string
	pos     int
	display string
	rows    bool
}

// checkCartesian warns when a group's required elements split into
// disconnected components: the group's result is then the full cross
// product of the components, which federated execution makes punishingly
// expensive (every component's rows ship over the network and multiply).
// The engine's connectivity-aware subquery ordering and bound-join
// bridging keep such queries executable, but the cost is almost never what
// the author intended. Components linked by a key equality filter
// (sparql.KeyEquality: STR(?a) = STR(?b), sameTerm) are not a cross
// product: the engine hash-joins them on that key.
var checkCartesian = &Check{
	Name:     "cartesian",
	Severity: sparql.SevWarning,
	Doc: "the required elements of a group share no variables and split into two or\n" +
		"more disconnected components, so the group's result is their cross product\n" +
		"(a STR(?a) = STR(?b) or sameTerm(?a, ?b) filter links two components).\n" +
		"Federated execution multiplies every component's rows over the network;\n" +
		"deliberate cross products should carry a suppression directive.",
	Run: func(p *Pass) {
		forEachGroup(p.Query, func(g *sparql.GroupPattern, _ map[string]bool) {
			var nodes []joinNode
			for _, el := range g.Elements {
				switch e := el.(type) {
				case sparql.TriplePattern:
					vars := e.Vars()
					if len(vars) == 0 {
						// A fully ground pattern is a boolean gate, not a
						// row multiplier; it cannot form a cross product.
						continue
					}
					nodes = append(nodes, joinNode{vars: vars, pos: e.Pos, display: patternDisplay(e), rows: true})
				case sparql.Union:
					var vars map[string]bool = map[string]bool{}
					for _, b := range e.Branches {
						possibleVars(b, vars)
					}
					nodes = append(nodes, joinNode{vars: keys(vars), pos: e.Pos, display: "UNION block", rows: true})
				case sparql.SubSelect:
					nodes = append(nodes, joinNode{vars: e.Query.ProjectedVars(), pos: e.Pos, display: "sub-select", rows: true})
				case sparql.InlineData:
					nodes = append(nodes, joinNode{vars: e.Vars, pos: e.Pos, display: "VALUES block"})
				case sparql.Bind:
					vars := append([]string{e.Var}, sparql.ExprVars(e.Expr)...)
					nodes = append(nodes, joinNode{vars: vars, pos: e.Pos, display: "BIND"})
				case sparql.Filter:
					for _, c := range sparql.Conjuncts(e.Expr) {
						if a, b, _, ok := sparql.KeyEquality(c); ok {
							nodes = append(nodes, joinNode{vars: []string{a, b}, pos: e.Pos, display: "FILTER"})
						}
					}
				}
			}

			// Union-find over shared variables.
			parent := make([]int, len(nodes))
			for i := range parent {
				parent[i] = i
			}
			var find func(int) int
			find = func(i int) int {
				for parent[i] != i {
					parent[i] = parent[parent[i]]
					i = parent[i]
				}
				return i
			}
			byVar := map[string]int{}
			for i, n := range nodes {
				for _, v := range n.vars {
					if j, ok := byVar[v]; ok {
						parent[find(i)] = find(j)
					} else {
						byVar[v] = i
					}
				}
			}
			// Components that contain at least one row-producing element.
			compFirst := map[int]int{} // root -> index of first data node
			for i, n := range nodes {
				if !n.rows {
					continue
				}
				root := find(i)
				if _, ok := compFirst[root]; !ok {
					compFirst[root] = i
				}
			}
			if len(compFirst) < 2 {
				return
			}
			// Anchor the warning on the second component in element order.
			var firsts []int
			for _, i := range compFirst {
				firsts = append(firsts, i)
			}
			sort.Ints(firsts)
			second := nodes[firsts[1]]
			p.Reportf(second.pos, "group forms a cartesian product: %d disconnected components (%s shares no variable with %s); the result is their cross product",
				len(compFirst), second.display, nodes[firsts[0]].display)
		})
	},
}

func patternDisplay(tp sparql.TriplePattern) string {
	g := &sparql.GroupPattern{Elements: []sparql.Element{tp}}
	s := (&sparql.Query{Form: sparql.AskForm, Where: g, Limit: -1}).String()
	// Extract "pattern ." from "ASK WHERE { pattern . }".
	if i := strings.Index(s, "{ "); i >= 0 {
		s = strings.TrimSuffix(s[i+2:], " . }")
	}
	return s
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkFilterSat folds ground filter expressions with the engine's own
// evaluation semantics (expr.ConstEBV) and detects contradictory
// conjunctions over a single variable: equality to two distinct constants,
// equality contradicting a disequality, and empty numeric ranges.
var checkFilterSat = &Check{
	Name:     "filtersat",
	Severity: sparql.SevWarning,
	Doc: "constant-foldable or unsatisfiable FILTER: a ground expression that is\n" +
		"always true is dead weight (info); one that is always false or always errors\n" +
		"makes its group yield no rows (warning); a conjunction whose per-variable\n" +
		"constraints contradict (= to two constants, = against !=, an empty numeric\n" +
		"range) can never hold (warning).",
	Run: func(p *Pass) {
		forEachGroup(p.Query, func(g *sparql.GroupPattern, _ map[string]bool) {
			for _, el := range g.Elements {
				f, ok := el.(sparql.Filter)
				if !ok {
					continue
				}
				if v, err := expr.ConstEBV(f.Expr); err == nil {
					if v {
						p.ReportfSeverity(sparql.SevInfo, f.Pos, "filter is constant true: it removes no rows and can be deleted")
					} else {
						p.Reportf(f.Pos, "filter is constant false: its group yields no rows")
					}
					continue
				} else if !errors.Is(err, expr.ErrNonConst) {
					p.Reportf(f.Pos, "filter expression always errors (%v): its group yields no rows", err)
					continue
				}
				if msg := contradictionIn(f.Expr); msg != "" {
					p.Reportf(f.Pos, "filter conjunction is unsatisfiable: %s; its group yields no rows", msg)
				}
			}
		})
	},
}

// varConstraint is one conjunct of the form ?v OP constant.
type varConstraint struct {
	op   string
	term rdf.Term
}

// contradictionIn reports a human-readable contradiction between the
// per-variable constant constraints of the expression's conjunction, or ""
// when none is provable.
func contradictionIn(x sparql.Expr) string {
	perVar := map[string][]varConstraint{}
	for _, c := range sparql.Conjuncts(x) {
		b, ok := c.(sparql.ExprBinary)
		if !ok {
			continue
		}
		v, okv := b.L.(sparql.ExprVar)
		rhs := b.R
		op := b.Op
		if !okv {
			// constant OP ?v — mirror to ?v OP' constant.
			v, okv = b.R.(sparql.ExprVar)
			rhs = b.L
			op = mirrorOp(b.Op)
			if !okv || op == "" {
				continue
			}
		}
		t, err := expr.ConstEval(rhs)
		if err != nil {
			continue
		}
		switch op {
		case "=", "!=", "<", "<=", ">", ">=":
			perVar[v.Name] = append(perVar[v.Name], varConstraint{op: op, term: t})
		}
	}

	vars := make([]string, 0, len(perVar))
	for v := range perVar {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		if msg := contradictionFor(v, perVar[v]); msg != "" {
			return msg
		}
	}
	return ""
}

func mirrorOp(op string) string {
	switch op {
	case "=", "!=":
		return op
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return ""
}

// contradictionFor checks one variable's constraints for pairwise
// contradictions: conflicting equalities, equality against disequality or
// an excluding range, and empty numeric ranges.
func contradictionFor(v string, cs []varConstraint) string {
	var eq *rdf.Term
	lo, hi := "", "" // rendered bounds for messages
	loVal, hiVal := 0.0, 0.0
	loInc, hiInc := false, false
	hasLo, hasHi := false, false

	render := func(t rdf.Term) string { return t.String() }
	for _, c := range cs {
		switch c.op {
		case "=":
			if eq != nil && !sameConstant(*eq, c.term) {
				return "?" + v + " = " + render(*eq) + " contradicts ?" + v + " = " + render(c.term)
			}
			t := c.term
			eq = &t
		case "!=":
			if eq != nil && sameConstant(*eq, c.term) {
				return "?" + v + " = " + render(c.term) + " contradicts ?" + v + " != " + render(c.term)
			}
		case "<", "<=", ">", ">=":
			f, ok := c.term.Numeric()
			if !ok {
				continue
			}
			inc := c.op == "<=" || c.op == ">="
			if c.op == "<" || c.op == "<=" {
				if !hasHi || f < hiVal || (f == hiVal && !inc) {
					hasHi, hiVal, hiInc, hi = true, f, inc, render(c.term)
				}
			} else {
				if !hasLo || f > loVal || (f == loVal && !inc) {
					hasLo, loVal, loInc, lo = true, f, inc, render(c.term)
				}
			}
		}
	}
	// Re-scan the deferred interactions now that eq and the range are known.
	for _, c := range cs {
		if c.op == "!=" && eq != nil && sameConstant(*eq, c.term) {
			return "?" + v + " = " + render(c.term) + " contradicts ?" + v + " != " + render(c.term)
		}
	}
	if eq != nil {
		if f, ok := eq.Numeric(); ok {
			if hasHi && (f > hiVal || (f == hiVal && !hiInc)) {
				return "?" + v + " = " + render(*eq) + " is outside the range bound < " + hi
			}
			if hasLo && (f < loVal || (f == loVal && !loInc)) {
				return "?" + v + " = " + render(*eq) + " is outside the range bound > " + lo
			}
		}
	}
	if hasLo && hasHi {
		if loVal > hiVal || (loVal == hiVal && (!loInc || !hiInc)) {
			return "?" + v + " > " + lo + " contradicts ?" + v + " < " + hi
		}
	}
	return ""
}

// sameConstant reports whether two constants are the same value for
// contradiction purposes: numeric comparison when both are numeric,
// otherwise term identity.
func sameConstant(a, b rdf.Term) bool {
	if fa, ok := a.Numeric(); ok {
		if fb, ok := b.Numeric(); ok {
			return fa == fb
		}
	}
	return a == b
}

// checkDupPattern notes triple patterns repeated verbatim in the same
// group: BGP matching is set-based, so the duplicate adds join work but no
// rows. The rewriter removes them; the diagnostic surfaces the redundancy
// to the query author.
var checkDupPattern = &Check{
	Name:     "duppattern",
	Severity: sparql.SevInfo,
	Doc: "a triple pattern is repeated verbatim in the same group. BGP matching is\n" +
		"set-based, so the duplicate contributes no additional rows — only join cost.\n" +
		"The safe-rewrite pass removes it automatically.",
	Run: func(p *Pass) {
		forEachGroup(p.Query, func(g *sparql.GroupPattern, _ map[string]bool) {
			seen := map[sparql.TriplePattern]bool{}
			for _, el := range g.Elements {
				tp, ok := el.(sparql.TriplePattern)
				if !ok {
					continue
				}
				key := tp
				key.Pos = 0
				if seen[key] {
					p.Reportf(tp.Pos, "duplicate triple pattern %s in the same group: set-based matching makes it a no-op", patternDisplay(tp))
				}
				seen[key] = true
			}
		})
	},
}

// checkOptWellDesigned flags non-well-designed OPTIONAL use: a variable of
// an OPTIONAL body that also occurs elsewhere in the query but not in the
// required part of the group the OPTIONAL extends. Such patterns make the
// result depend on evaluation order (Pérez et al.'s well-designed
// fragment is exactly the class where OPTIONAL is order-independent), and
// federated decomposition is free to pick an order the author did not
// anticipate.
var checkOptWellDesigned = &Check{
	Name:     "optwelldesigned",
	Severity: sparql.SevWarning,
	Doc: "non-well-designed OPTIONAL: a variable inside the OPTIONAL body also occurs\n" +
		"elsewhere in the query but not in the required part of the group the OPTIONAL\n" +
		"extends, so the result depends on evaluation order — and the federated\n" +
		"planner chooses that order, not the query text.",
	Run: func(p *Pass) {
		q := p.Query
		forEachGroup(q, func(g *sparql.GroupPattern, _ map[string]bool) {
			for i, el := range g.Elements {
				opt, ok := el.(sparql.Optional)
				if !ok {
					continue
				}
				optVars := map[string]bool{}
				possibleVars(opt.Group, optVars)
				// The part the OPTIONAL extends is what has accumulated
				// before it in the group — elements after it join onto the
				// left-join result, which is exactly where a shared variable
				// turns order-dependent.
				required := requiredVars(&sparql.GroupPattern{Elements: g.Elements[:i]})
				outside := map[string]bool{}
				collectVarsExcluding(q.Where, opt.Group, outside)
				var bad []string
				for v := range optVars {
					if outside[v] && !required[v] {
						bad = append(bad, v)
					}
				}
				sort.Strings(bad)
				for _, v := range bad {
					p.Reportf(opt.Pos, "non-well-designed OPTIONAL: ?%s is bound inside the OPTIONAL and elsewhere in the query, but not in the group the OPTIONAL extends; the result depends on join order", v)
				}
			}
		})
	},
}

// collectVarsExcluding gathers every variable the group tree can bind,
// skipping the excluded subtree (an OPTIONAL body under test).
func collectVarsExcluding(g, exclude *sparql.GroupPattern, into map[string]bool) {
	if g == nil || g == exclude {
		return
	}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case sparql.TriplePattern:
			for _, v := range e.Vars() {
				into[v] = true
			}
		case sparql.Optional:
			collectVarsExcluding(e.Group, exclude, into)
		case sparql.Union:
			for _, b := range e.Branches {
				collectVarsExcluding(b, exclude, into)
			}
		case sparql.SubSelect:
			for _, v := range e.Query.ProjectedVars() {
				into[v] = true
			}
		case sparql.InlineData:
			for _, v := range e.Vars {
				into[v] = true
			}
		case sparql.Bind:
			into[e.Var] = true
		}
	}
}
