package sema

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"sort"
	"strings"

	"lusail/internal/sparql"
)

// Canonicalization: a normal form for parsed queries such that two
// syntactic spellings of the same query — different whitespace, prefix
// declarations, join-commutative pattern order, union branch order, or
// internal variable names — serialize identically. The sha256 of the
// canonical text is lusaild's result-cache key (server.ResultCache), so
// spelling variants share one cached result.
//
// Soundness direction matters: the canonical form must never merge two
// queries with different semantics (a false merge serves wrong answers
// from the cache); failing to merge two equivalent queries only costs a
// duplicate execution. Every transformation below is therefore
// individually row-multiset-preserving:
//
//   - whitespace/prefix normalization: Query.String always emits absolute
//     IRIs and single spacing.
//   - pattern sorting: only contiguous runs of triple patterns are sorted
//     (join is commutative and associative); patterns never move across
//     OPTIONAL/BIND/VALUES elements, whose left-join and scope semantics
//     are order-sensitive.
//   - filter placement: FILTERs apply to their whole group regardless of
//     position (SPARQL 2007 §5.2.2), so they sort to the group's end.
//   - union branch sorting: union is commutative.
//   - α-renaming: a globally consistent injective renaming of variable
//     names preserves semantics; names in the output schema (SELECT
//     projections, or every variable under SELECT *) are fixed points, so
//     the result header is untouched.
func canonicalQuery(q *sparql.Query) *sparql.Query {
	out := cloneQuery(q)
	out.Prefixes = nil
	// First sort with a variable-blind key so the order is independent of
	// the original variable spelling, then α-rename in traversal order,
	// then re-sort with the full serialization so ties between
	// skeleton-equal patterns are broken deterministically.
	sortQuery(out, true)
	alphaRename(out)
	sortQuery(out, false)
	return out
}

// CanonicalText returns the canonical serialization of the query.
func CanonicalText(q *sparql.Query) string {
	return canonicalQuery(q).String()
}

// Key returns the result-cache key for the query: the hex sha256 of its
// canonical text.
func Key(q *sparql.Query) string {
	return KeyOf(CanonicalText(q))
}

// KeyOf hashes an already-computed canonical text, so a caller that needs
// both the text and the key canonicalizes once.
func KeyOf(canonicalText string) string {
	sum := sha256.Sum256([]byte(canonicalText))
	return hex.EncodeToString(sum[:])
}

// elementKey renders a sort key for an element. varBlind replaces every
// variable with "?" so the key ignores naming.
func elementString(el sparql.Element) string {
	g := &sparql.GroupPattern{Elements: []sparql.Element{el}}
	return groupString(g)
}

func groupString(g *sparql.GroupPattern) string {
	return (&sparql.Query{Form: sparql.AskForm, Where: g, Limit: -1}).String()
}

var varTokenRE = regexp.MustCompile(`\?[A-Za-z0-9_]+`)

// blindString erases variable names from a serialization, so the first
// sort pass orders elements independently of the original spelling.
func blindString(s string) string {
	return varTokenRE.ReplaceAllString(s, "?")
}

// sortQuery applies the order normalization everywhere in the query. blind
// selects the variable-blind key for the pre-rename pass.
func sortQuery(q *sparql.Query, blind bool) {
	sortGroup(q.Where, blind)
}

// sortGroup normalizes one group's element order (recursing first so
// nested serializations are already canonical when used as sort keys):
// contiguous triple-pattern runs are sorted, filters move to the end in
// sorted order, and union branches are sorted. All other elements keep
// their relative order.
func sortGroup(g *sparql.GroupPattern, blind bool) {
	key := func(el sparql.Element) string {
		s := elementString(el)
		if blind {
			return blindString(s)
		}
		return s
	}
	bkey := func(b *sparql.GroupPattern) string {
		s := groupString(b)
		if blind {
			return blindString(s)
		}
		return s
	}
	if g == nil {
		return
	}
	for i, el := range g.Elements {
		switch e := el.(type) {
		case sparql.Optional:
			sortGroup(e.Group, blind)
		case sparql.Union:
			for _, b := range e.Branches {
				sortGroup(b, blind)
			}
			sort.SliceStable(e.Branches, func(x, y int) bool {
				return bkey(e.Branches[x]) < bkey(e.Branches[y])
			})
			g.Elements[i] = e
		case sparql.SubSelect:
			sortGroup(e.Query.Where, blind)
		case sparql.Filter:
			e.Expr = sortExprGroups(e.Expr, blind)
			g.Elements[i] = e
		}
	}

	var body, filters []sparql.Element
	for _, el := range g.Elements {
		if _, ok := el.(sparql.Filter); ok {
			filters = append(filters, el)
		} else {
			body = append(body, el)
		}
	}
	// Sort each contiguous run of triple patterns.
	for start := 0; start < len(body); {
		if _, ok := body[start].(sparql.TriplePattern); !ok {
			start++
			continue
		}
		end := start
		for end < len(body) {
			if _, ok := body[end].(sparql.TriplePattern); !ok {
				break
			}
			end++
		}
		run := body[start:end]
		sort.SliceStable(run, func(x, y int) bool { return key(run[x]) < key(run[y]) })
		start = end
	}
	sort.SliceStable(filters, func(x, y int) bool { return key(filters[x]) < key(filters[y]) })
	g.Elements = append(body, filters...)
}

// sortExprGroups canonicalizes groups nested inside EXISTS expressions.
func sortExprGroups(x sparql.Expr, blind bool) sparql.Expr {
	switch e := x.(type) {
	case sparql.ExprExists:
		sortGroup(e.Group, blind)
		return e
	case sparql.ExprBinary:
		e.L = sortExprGroups(e.L, blind)
		e.R = sortExprGroups(e.R, blind)
		return e
	case sparql.ExprUnary:
		e.X = sortExprGroups(e.X, blind)
		return e
	case sparql.ExprCall:
		for i := range e.Args {
			e.Args[i] = sortExprGroups(e.Args[i], blind)
		}
		return e
	}
	return x
}

// alphaRename renames every variable that is not part of the query's
// output schema to a positional name (_0, _1, ...) assigned in traversal
// order. The renaming is global and injective — two occurrences of one
// name always map to one name, and distinct names never collide — which
// preserves semantics even across sub-select scope boundaries (a shared
// spelling stays shared, a distinct spelling stays distinct). Queries that
// already use a _N-style or otherwise colliding name skip renaming: the
// canonical form is then merely less aggressive, never wrong.
func alphaRename(q *sparql.Query) {
	protected := map[string]bool{}
	switch {
	case q.Form == sparql.SelectForm && (q.Star || len(q.Projection) == 0):
		// SELECT *: every variable name is part of the result header.
		return
	case q.Form == sparql.SelectForm:
		for _, p := range q.Projection {
			protected[p.Var] = true
		}
	}

	rename := map[string]string{}
	next := 0
	assign := func(name string) string {
		if name == "" || protected[name] {
			return name
		}
		if n, ok := rename[name]; ok {
			return n
		}
		n := "_" + itoa(next)
		next++
		rename[name] = n
		return n
	}

	// Refuse to rename when any existing name could collide with the
	// generated namespace.
	collision := false
	forEachVarName(q, func(name string) string {
		if strings.HasPrefix(name, "_") {
			collision = true
		}
		return name
	})
	if collision {
		return
	}
	forEachVarName(q, assign)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// forEachVarName visits every variable-name occurrence in the query in
// deterministic traversal order, replacing it with the function's return
// value.
func forEachVarName(q *sparql.Query, fn func(string) string) {
	var walkGroup func(g *sparql.GroupPattern)
	var walkExpr func(x sparql.Expr) sparql.Expr

	walkTerm := func(pt sparql.PatternTerm) sparql.PatternTerm {
		if pt.IsVar() {
			pt.Var = fn(pt.Var)
		}
		return pt
	}
	walkPattern := func(tp sparql.TriplePattern) sparql.TriplePattern {
		tp.S = walkTerm(tp.S)
		tp.P = walkTerm(tp.P)
		tp.O = walkTerm(tp.O)
		return tp
	}
	walkExpr = func(x sparql.Expr) sparql.Expr {
		switch e := x.(type) {
		case sparql.ExprVar:
			e.Name = fn(e.Name)
			return e
		case sparql.ExprBinary:
			e.L = walkExpr(e.L)
			e.R = walkExpr(e.R)
			return e
		case sparql.ExprUnary:
			e.X = walkExpr(e.X)
			return e
		case sparql.ExprCall:
			for i := range e.Args {
				e.Args[i] = walkExpr(e.Args[i])
			}
			return e
		case sparql.ExprExists:
			walkGroup(e.Group)
			return e
		}
		return x
	}
	var walkQuery func(q *sparql.Query)
	walkGroup = func(g *sparql.GroupPattern) {
		if g == nil {
			return
		}
		for i, el := range g.Elements {
			switch e := el.(type) {
			case sparql.TriplePattern:
				g.Elements[i] = walkPattern(e)
			case sparql.Filter:
				e.Expr = walkExpr(e.Expr)
				g.Elements[i] = e
			case sparql.Optional:
				walkGroup(e.Group)
			case sparql.Union:
				for _, b := range e.Branches {
					walkGroup(b)
				}
			case sparql.SubSelect:
				walkQuery(e.Query)
			case sparql.InlineData:
				for j, v := range e.Vars {
					e.Vars[j] = fn(v)
				}
				g.Elements[i] = e
			case sparql.Bind:
				e.Var = fn(e.Var)
				e.Expr = walkExpr(e.Expr)
				g.Elements[i] = e
			}
		}
	}
	walkQuery = func(q *sparql.Query) {
		for i, p := range q.Projection {
			q.Projection[i].Var = fn(p.Var)
			if p.Agg != nil && p.Agg.Var != "" {
				p.Agg.Var = fn(p.Agg.Var)
			}
		}
		walkGroup(q.Where)
		for i, tp := range q.Template {
			q.Template[i] = walkPattern(tp)
		}
		for i, v := range q.GroupBy {
			q.GroupBy[i] = fn(v)
		}
		for i := range q.OrderBy {
			q.OrderBy[i].Var = fn(q.OrderBy[i].Var)
		}
	}
	walkQuery(q)
}
