package sema

import (
	"errors"
	"fmt"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/sparql/expr"
)

// Rewrite returns a semantically equivalent copy of the query with the
// safe-rewrite suite applied, plus a note per rewrite performed. Every
// rewrite preserves the row multiset of Engine.Select exactly (the parity
// suite in internal/bench holds it to that on the LUBM workload):
//
//   - constfold: ground subexpressions are folded with the engine's own
//     evaluation semantics (expr.ConstEval); an erroring ground
//     subexpression is left untouched, because SPARQL's error propagation
//     is not the same as false propagation (e.g. !error ≠ !false).
//   - dead-FILTER elimination: a filter folded to constant true removes no
//     rows and is deleted.
//   - duplicate-pattern dedup: BGP matching is set-based, so a triple
//     pattern repeated verbatim in one group is a self-join that yields
//     the pattern itself.
//   - dead-OPTIONAL elimination: an OPTIONAL whose body contains a
//     constant-false filter never extends any row; left join with the
//     empty relation is the identity, so the OPTIONAL is deleted.
//   - dead-UNION-branch elimination: a branch with a constant-false filter
//     contributes no rows to the union and is deleted (unless it is the
//     last branch, whose emptiness is the group's semantics).
//   - filter pushdown: a filter whose variables are certainly bound by
//     every branch of a sibling UNION moves into the branches, so the
//     decomposer ships it to endpoints FedX-style. Filters distribute over
//     union, and join-then-filter equals filter-then-join when the filter
//     reads only branch-bound variables.
//
// The input query is not modified.
func Rewrite(q *sparql.Query) (*sparql.Query, []string) {
	out := cloneQuery(q)
	var notes []string
	// Iterate to a fixpoint: folding can expose dead optionals, dedup can
	// expose pushdown opportunities. The suite strictly shrinks or
	// preserves the AST, so four rounds is a safe ceiling.
	for round := 0; round < 4; round++ {
		n := len(notes)
		rewriteGroup(out.Where, &notes)
		if len(notes) == n {
			break
		}
	}
	return out, notes
}

func rewriteGroup(g *sparql.GroupPattern, notes *[]string) {
	if g == nil {
		return
	}
	// Recurse first so nested results feed the local decisions.
	for i, el := range g.Elements {
		switch e := el.(type) {
		case sparql.Filter:
			e.Expr = foldExpr(e.Expr, notes)
			g.Elements[i] = e
		case sparql.Optional:
			rewriteGroup(e.Group, notes)
		case sparql.Union:
			for _, b := range e.Branches {
				rewriteGroup(b, notes)
			}
		case sparql.SubSelect:
			rewriteGroup(e.Query.Where, notes)
		case sparql.Bind:
			e.Expr = foldExpr(e.Expr, notes)
			g.Elements[i] = e
		}
	}

	var kept []sparql.Element
	seen := map[sparql.TriplePattern]bool{}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case sparql.TriplePattern:
			key := e
			key.Pos = 0
			if seen[key] {
				*notes = append(*notes, fmt.Sprintf("dedup: removed duplicate pattern %s", patternDisplay(e)))
				continue
			}
			seen[key] = true
		case sparql.Filter:
			if v, err := expr.ConstEBV(e.Expr); err == nil && v {
				*notes = append(*notes, "deadfilter: removed constant-true FILTER")
				continue
			}
		case sparql.Optional:
			if groupAlwaysEmpty(e.Group) {
				*notes = append(*notes, "deadoptional: removed OPTIONAL whose body yields no rows")
				continue
			}
		case sparql.Union:
			var live []*sparql.GroupPattern
			for _, b := range e.Branches {
				if groupAlwaysEmpty(b) && len(e.Branches) > 1 {
					continue
				}
				live = append(live, b)
			}
			if len(live) == 0 {
				// Every branch is dead; keep one so the group still yields
				// no rows — deleting the union would change semantics.
				live = e.Branches[:1]
			}
			if len(live) < len(e.Branches) {
				*notes = append(*notes, fmt.Sprintf("deadunion: removed %d dead UNION branch(es)", len(e.Branches)-len(live)))
				e.Branches = live
				kept = append(kept, e)
				continue
			}
		}
		kept = append(kept, el)
	}
	g.Elements = kept

	pushFilters(g, notes)
}

// groupAlwaysEmpty reports whether the group provably yields no rows: it
// directly contains a filter that is constant false or always errors.
func groupAlwaysEmpty(g *sparql.GroupPattern) bool {
	for _, el := range g.Elements {
		f, ok := el.(sparql.Filter)
		if !ok {
			continue
		}
		if v, err := expr.ConstEBV(f.Expr); err == nil && !v {
			return true
		} else if err != nil && !errors.Is(err, expr.ErrNonConst) {
			return true
		}
	}
	return false
}

// pushFilters moves each filter of g whose variables are certainly bound
// by every branch of exactly one sibling UNION into those branches.
// Soundness: Filter(F, Join(R, Union(B1..Bn))) =
// Join(R, Union(Filter(F,B1)..Filter(F,Bn))) when vars(F) ⊆ certain(Bi)
// for all i — the filter's verdict for a joined row depends only on the
// branch-bound values, which the join preserves.
func pushFilters(g *sparql.GroupPattern, notes *[]string) {
	// Indexes of union elements and their certainly-bound variable sets.
	type unionInfo struct {
		idx     int
		certain map[string]bool
	}
	var unions []unionInfo
	for i, el := range g.Elements {
		if u, ok := el.(sparql.Union); ok {
			certain := certainUnionVars(u)
			unions = append(unions, unionInfo{idx: i, certain: certain})
		}
	}
	if len(unions) == 0 {
		return
	}
	var kept []sparql.Element
	for _, el := range g.Elements {
		f, ok := el.(sparql.Filter)
		if !ok {
			kept = append(kept, el)
			continue
		}
		vars := sparql.ExprVars(f.Expr)
		if len(vars) == 0 || hasExists(f.Expr) {
			kept = append(kept, el)
			continue
		}
		target := -1
		for _, u := range unions {
			all := true
			for _, v := range vars {
				if !u.certain[v] {
					all = false
					break
				}
			}
			if all {
				if target >= 0 {
					// More than one union certainly binds the filter's
					// variables; pushing into either alone is still sound
					// (the other's join re-checks nothing), but keep the
					// filter at group level for simplicity.
					target = -2
					break
				}
				target = u.idx
			}
		}
		if target < 0 {
			kept = append(kept, el)
			continue
		}
		u := g.Elements[target].(sparql.Union)
		for _, b := range u.Branches {
			b.Elements = append(b.Elements, sparql.Filter{Expr: cloneExpr(f.Expr)})
		}
		*notes = append(*notes, fmt.Sprintf("pushdown: moved FILTER on %v into %d UNION branch(es)", vars, len(u.Branches)))
	}
	g.Elements = kept
}

// certainUnionVars returns the variables every branch of the union
// certainly binds in each of its solutions.
func certainUnionVars(u sparql.Union) map[string]bool {
	var out map[string]bool
	for _, b := range u.Branches {
		c := certainGroupVars(b)
		if out == nil {
			out = c
			continue
		}
		for v := range out {
			if !c[v] {
				delete(out, v)
			}
		}
	}
	if out == nil {
		out = map[string]bool{}
	}
	return out
}

// certainGroupVars returns variables bound in every solution of the group:
// required triple patterns, VALUES with no UNDEF in the column, nested
// unions' certain vars, and sub-select projections that are certain below.
// OPTIONAL and BIND never bind certainly (BIND's expression can error).
func certainGroupVars(g *sparql.GroupPattern) map[string]bool {
	out := map[string]bool{}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case sparql.TriplePattern:
			for _, v := range e.Vars() {
				out[v] = true
			}
		case sparql.Union:
			for v := range certainUnionVars(e) {
				out[v] = true
			}
		case sparql.InlineData:
			for col, v := range e.Vars {
				allBound := len(e.Rows) > 0
				for _, row := range e.Rows {
					if col >= len(row) || row[col].IsZero() {
						allBound = false
						break
					}
				}
				if allBound {
					out[v] = true
				}
			}
		case sparql.SubSelect:
			sub := certainGroupVars(e.Query.Where)
			for _, p := range e.Query.Projection {
				if p.Agg != nil || sub[p.Var] {
					out[p.Var] = true
				}
			}
			if e.Query.Star {
				for v := range sub {
					out[v] = true
				}
			}
		}
	}
	return out
}

func hasExists(x sparql.Expr) bool {
	switch e := x.(type) {
	case sparql.ExprExists:
		return true
	case sparql.ExprBinary:
		return hasExists(e.L) || hasExists(e.R)
	case sparql.ExprUnary:
		return hasExists(e.X)
	case sparql.ExprCall:
		for _, a := range e.Args {
			if hasExists(a) {
				return true
			}
		}
	}
	return false
}

// foldExpr replaces ground subexpressions that evaluate successfully with
// their constant value. Erroring ground subexpressions are preserved:
// SPARQL's ternary error logic means an error operand is not
// interchangeable with false (!error is error, but !false is true).
func foldExpr(x sparql.Expr, notes *[]string) sparql.Expr {
	switch e := x.(type) {
	case sparql.ExprTerm, sparql.ExprVar:
		return x
	case sparql.ExprExists:
		return x
	case sparql.ExprUnary:
		e.X = foldExpr(e.X, notes)
		return tryFold(e, notes)
	case sparql.ExprBinary:
		e.L = foldExpr(e.L, notes)
		e.R = foldExpr(e.R, notes)
		return tryFold(e, notes)
	case sparql.ExprCall:
		for i := range e.Args {
			e.Args[i] = foldExpr(e.Args[i], notes)
		}
		return tryFold(e, notes)
	}
	return x
}

func tryFold(x sparql.Expr, notes *[]string) sparql.Expr {
	if _, isTerm := x.(sparql.ExprTerm); isTerm {
		return x
	}
	t, err := expr.ConstEval(x)
	if err != nil {
		return x
	}
	*notes = append(*notes, fmt.Sprintf("constfold: folded subexpression to %s", t))
	return sparql.ExprTerm{Term: t}
}

// cloneQuery deep-copies a query so rewrites never alias the caller's AST.
func cloneQuery(q *sparql.Query) *sparql.Query {
	if q == nil {
		return nil
	}
	out := *q
	if q.Prefixes != nil {
		out.Prefixes = make(map[string]string, len(q.Prefixes))
		for k, v := range q.Prefixes {
			out.Prefixes[k] = v
		}
	}
	out.Projection = append([]sparql.Projection(nil), q.Projection...)
	for i, p := range out.Projection {
		if p.Agg != nil {
			agg := *p.Agg
			out.Projection[i].Agg = &agg
		}
	}
	out.Template = append([]sparql.TriplePattern(nil), q.Template...)
	out.GroupBy = append([]string(nil), q.GroupBy...)
	out.OrderBy = append([]sparql.OrderCond(nil), q.OrderBy...)
	out.Where = cloneGroup(q.Where)
	return &out
}

func cloneGroup(g *sparql.GroupPattern) *sparql.GroupPattern {
	if g == nil {
		return nil
	}
	out := &sparql.GroupPattern{Pos: g.Pos}
	for _, el := range g.Elements {
		out.Elements = append(out.Elements, cloneElement(el))
	}
	return out
}

func cloneElement(el sparql.Element) sparql.Element {
	switch e := el.(type) {
	case sparql.TriplePattern:
		return e
	case sparql.Filter:
		e.Expr = cloneExpr(e.Expr)
		return e
	case sparql.Optional:
		e.Group = cloneGroup(e.Group)
		return e
	case sparql.Union:
		branches := make([]*sparql.GroupPattern, len(e.Branches))
		for i, b := range e.Branches {
			branches[i] = cloneGroup(b)
		}
		e.Branches = branches
		return e
	case sparql.SubSelect:
		e.Query = cloneQuery(e.Query)
		return e
	case sparql.InlineData:
		e.Vars = append([]string(nil), e.Vars...)
		rows := make([][]rdf.Term, len(e.Rows))
		for i, row := range e.Rows {
			rows[i] = append([]rdf.Term(nil), row...)
		}
		e.Rows = rows
		return e
	case sparql.Bind:
		e.Expr = cloneExpr(e.Expr)
		return e
	}
	return el
}

func cloneExpr(x sparql.Expr) sparql.Expr {
	switch e := x.(type) {
	case sparql.ExprBinary:
		e.L = cloneExpr(e.L)
		e.R = cloneExpr(e.R)
		return e
	case sparql.ExprUnary:
		e.X = cloneExpr(e.X)
		return e
	case sparql.ExprCall:
		args := make([]sparql.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = cloneExpr(a)
		}
		e.Args = args
		return e
	case sparql.ExprExists:
		e.Group = cloneGroup(e.Group)
		return e
	}
	return x
}
