// Package eval evaluates SPARQL queries (in the subset defined by package
// sparql) against an in-memory triple store. It is the query engine behind
// each endpoint in the simulated federation, standing in for Jena Fuseki /
// Virtuoso in the paper's experimental setup.
package eval

import (
	"fmt"
	"sync"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// Binding is one solution mapping from variable names to terms. Variables
// absent from the map are unbound.
type Binding map[string]rdf.Term

// Evaluator executes queries against a single graph backend (the in-memory
// store or the disk-backed store).
type Evaluator struct {
	st store.Graph

	// memo caches sub-select results within the current store version, so
	// FILTER (NOT) EXISTS { SELECT ... } blocks — the shape of Lusail's
	// locality check queries — evaluate their inner query once instead of
	// once per candidate row.
	memoMu   sync.Mutex
	memo     map[*sparql.Query]memoEntry
	memoSets map[*sparql.Query]map[rdf.Term]bool
}

type memoEntry struct {
	version int64
	res     *sparql.Results
}

// New returns an evaluator over the given graph backend.
func New(st store.Graph) *Evaluator {
	return &Evaluator{
		st:       st,
		memo:     map[*sparql.Query]memoEntry{},
		memoSets: map[*sparql.Query]map[rdf.Term]bool{},
	}
}

// singleVarSubSelect matches a group of the form { SELECT ?v WHERE ... }
// with exactly one projected variable.
func singleVarSubSelect(g *sparql.GroupPattern) (*sparql.Query, string, bool) {
	if len(g.Elements) != 1 {
		return nil, "", false
	}
	ss, ok := g.Elements[0].(sparql.SubSelect)
	if !ok {
		return nil, "", false
	}
	vars := ss.Query.ProjectedVars()
	if len(vars) != 1 {
		return nil, "", false
	}
	return ss.Query, vars[0], true
}

// subSelectSet returns the set of bound values of v in the memoized
// sub-select results.
func (e *Evaluator) subSelectSet(q *sparql.Query, v string) (map[rdf.Term]bool, error) {
	res, err := e.subSelect(q)
	if err != nil {
		return nil, err
	}
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	if set, ok := e.memoSets[q]; ok {
		return set, nil
	}
	idx := res.VarIndex(v)
	set := make(map[rdf.Term]bool, len(res.Rows))
	if idx >= 0 {
		for _, row := range res.Rows {
			if !row[idx].IsZero() {
				set[row[idx]] = true
			}
		}
	}
	if len(e.memoSets) > 256 {
		e.memoSets = map[*sparql.Query]map[rdf.Term]bool{}
	}
	e.memoSets[q] = set
	return set, nil
}

// subSelect evaluates a nested SELECT, memoized per store version.
func (e *Evaluator) subSelect(q *sparql.Query) (*sparql.Results, error) {
	v := e.st.Version()
	e.memoMu.Lock()
	if ent, ok := e.memo[q]; ok && ent.version == v {
		e.memoMu.Unlock()
		return ent.res, nil
	}
	e.memoMu.Unlock()
	res, err := e.Query(q)
	if err != nil {
		return nil, err
	}
	e.memoMu.Lock()
	if len(e.memo) > 256 {
		e.memo = map[*sparql.Query]memoEntry{}
		e.memoSets = map[*sparql.Query]map[rdf.Term]bool{}
	}
	e.memo[q] = memoEntry{version: v, res: res}
	delete(e.memoSets, q) // the derived value set is stale
	e.memoMu.Unlock()
	return res, nil
}

// Store returns the underlying graph backend.
func (e *Evaluator) Store() store.Graph { return e.st }

// QueryString parses and evaluates a query.
func (e *Evaluator) QueryString(q string) (*sparql.Results, error) {
	parsed, err := sparql.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.Query(parsed)
}

// Query evaluates a parsed query and returns its results. ASK queries yield
// a boolean result set.
//
// ASK queries and plain LIMIT queries over streamable groups (triple
// patterns plus filters only) are evaluated with an early-terminating
// depth-first search instead of full materialization; Lusail's LIMIT 1
// check queries depend on this stopping at the first witness.
func (e *Evaluator) Query(q *sparql.Query) (*sparql.Results, error) {
	if q.Form == sparql.ConstructForm {
		return nil, fmt.Errorf("eval: use Construct for CONSTRUCT queries")
	}
	if hint := limitHint(q); hint >= 0 && streamable(q.Where) {
		rows, err := e.evalStreamLimited(q.Where, hint)
		if err != nil {
			return nil, err
		}
		if q.Form == sparql.AskForm {
			return sparql.BoolResults(len(rows) > 0), nil
		}
		return e.finishSelect(q, rows)
	}
	rows, err := e.evalGroup(q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}
	if q.Form == sparql.AskForm {
		return sparql.BoolResults(len(rows) > 0), nil
	}
	return e.finishSelect(q, rows)
}

// limitHint returns the number of solutions after which evaluation may
// stop, or -1 when every solution is needed.
func limitHint(q *sparql.Query) int {
	if q.Form == sparql.AskForm {
		return 1
	}
	if q.Limit >= 0 && !q.Distinct && len(q.OrderBy) == 0 && !q.HasAggregates() &&
		len(q.GroupBy) == 0 && q.Offset == 0 {
		return q.Limit
	}
	return -1
}

// streamable reports whether the group consists solely of triple patterns
// and filters, so depth-first enumeration with leaf-level filtering is
// equivalent to full evaluation.
func streamable(g *sparql.GroupPattern) bool {
	for _, el := range g.Elements {
		switch el.(type) {
		case sparql.TriplePattern, sparql.Filter:
		default:
			return false
		}
	}
	return true
}

// evalStreamLimited enumerates solutions depth-first, applying filters at
// each complete assignment, and stops once limit rows are produced.
func (e *Evaluator) evalStreamLimited(g *sparql.GroupPattern, limit int) ([]Binding, error) {
	patterns := g.TriplePatterns()
	var filters []sparql.Expr
	for _, el := range g.Elements {
		if f, ok := el.(sparql.Filter); ok {
			filters = append(filters, f.Expr)
		}
	}
	var out []Binding
	var evalErr error
	if limit == 0 {
		return nil, nil
	}
	e.stream(patterns, Binding{}, func(b Binding) bool {
		for _, f := range filters {
			ok, err := evalEBV(e, f, b)
			if err != nil {
				return true // filter error removes the row; keep searching
			}
			if !ok {
				return true
			}
		}
		out = append(out, b)
		return len(out) < limit
	}, &evalErr)
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// stream recursively extends the binding one pattern at a time, choosing
// the most selective pattern at each depth. emit returns false to stop the
// whole enumeration.
func (e *Evaluator) stream(remaining []sparql.TriplePattern, b Binding, emit func(Binding) bool, evalErr *error) bool {
	if len(remaining) == 0 {
		return emit(b)
	}
	bound := map[string]bool{}
	for v := range b {
		bound[v] = true
	}
	best, bestScore := 0, -1<<30
	for i, tp := range remaining {
		if score := patternScore(tp, bound, e.st); score > bestScore {
			best, bestScore = i, score
		}
	}
	tp := remaining[best]
	rest := make([]sparql.TriplePattern, 0, len(remaining)-1)
	rest = append(rest, remaining[:best]...)
	rest = append(rest, remaining[best+1:]...)

	cont := true
	e.st.Match(resolve(tp.S, b), resolve(tp.P, b), resolve(tp.O, b), func(t rdf.Triple) bool {
		nb := extendBinding(b, tp, t)
		if nb != nil {
			cont = e.stream(rest, nb, emit, evalErr)
		}
		return cont
	})
	return cont
}

// finishSelect lays the raw solutions out as a positional relation over
// the variables the solution modifiers read — none at all for COUNT(*) —
// and hands it to the shared modifier tail.
func (e *Evaluator) finishSelect(q *sparql.Query, rows []Binding) (*sparql.Results, error) {
	vars := sparql.ModifierVars(q)
	rel := sparql.NewResults(vars)
	rel.Rows = make([][]rdf.Term, len(rows))
	if len(vars) > 0 {
		for r, b := range rows {
			row := make([]rdf.Term, len(vars))
			for i, v := range vars {
				row[i] = b[v] // zero Term if unbound
			}
			rel.Rows[r] = row
		}
	}
	return sparql.ApplyModifiers(q, rel)
}

// evalGroup evaluates a group graph pattern seeded with the given solutions.
// Filters are collected and applied at the end of the group, per SPARQL
// scoping rules.
func (e *Evaluator) evalGroup(g *sparql.GroupPattern, input []Binding) ([]Binding, error) {
	rows := input
	// Hoist VALUES blocks to the front: joining the inline data first seeds
	// the basic graph pattern with bound variables, so bound subqueries
	// (Lusail's and FedX's VALUES-based bound joins) evaluate with index
	// lookups instead of scanning and post-filtering. Join is commutative,
	// so this is semantics-preserving.
	for _, el := range g.Elements {
		if d, ok := el.(sparql.InlineData); ok {
			rows = joinWithValues(rows, d)
		}
	}
	var filters []sparql.Expr
	var bgp []sparql.TriplePattern

	flushBGP := func() {
		if len(bgp) > 0 {
			rows = e.evalBGP(bgp, rows)
			bgp = nil
		}
	}

	for _, el := range g.Elements {
		switch el := el.(type) {
		case sparql.TriplePattern:
			bgp = append(bgp, el)
		case sparql.Filter:
			filters = append(filters, el.Expr)
		case sparql.Optional:
			flushBGP()
			next := make([]Binding, 0, len(rows))
			for _, b := range rows {
				ext, err := e.evalGroup(el.Group, []Binding{b})
				if err != nil {
					return nil, err
				}
				if len(ext) == 0 {
					next = append(next, b)
				} else {
					next = append(next, ext...)
				}
			}
			rows = next
		case sparql.Union:
			flushBGP()
			var next []Binding
			for _, br := range el.Branches {
				out, err := e.evalGroup(br, rows)
				if err != nil {
					return nil, err
				}
				next = append(next, out...)
			}
			rows = next
		case sparql.SubSelect:
			flushBGP()
			sub, err := e.subSelect(el.Query)
			if err != nil {
				return nil, err
			}
			rows = joinWithResults(rows, sub)
		case sparql.InlineData:
			// Already joined in the hoisting pass above.
		case sparql.Bind:
			flushBGP()
			for i, b := range rows {
				if v, err := evalExpr(e, el.Expr, b); err == nil && !v.IsZero() {
					nb := cloneBinding(b)
					nb[el.Var] = v
					rows[i] = nb
				}
			}
		default:
			return nil, fmt.Errorf("eval: unsupported group element %T", el)
		}
		if len(rows) == 0 && len(bgp) == 0 {
			// Short-circuit: no solutions can come back (filters can only
			// remove rows).
			break
		}
	}
	flushBGP()
	for _, f := range filters {
		kept := rows[:0]
		for _, b := range rows {
			ok, err := evalEBV(e, f, b)
			if err == nil && ok {
				kept = append(kept, b)
			}
		}
		rows = kept
	}
	return rows, nil
}

// evalBGP evaluates a basic graph pattern by joining its triple patterns
// into the current solutions. Patterns are chosen greedily: at each step,
// pick the pattern with the most positions bound (by constants or
// already-bound variables), breaking ties by smaller predicate cardinality.
func (e *Evaluator) evalBGP(patterns []sparql.TriplePattern, rows []Binding) []Binding {
	remaining := append([]sparql.TriplePattern(nil), patterns...)
	bound := map[string]bool{}
	if len(rows) > 0 {
		for v := range rows[0] {
			bound[v] = true
		}
		// Variables bound in *any* seed row count as bound for ordering
		// purposes; correctness does not depend on this, only efficiency.
		for _, r := range rows {
			for v := range r {
				bound[v] = true
			}
		}
	}
	for len(remaining) > 0 && len(rows) > 0 {
		best := 0
		bestScore := -1 << 30
		for i, tp := range remaining {
			score := patternScore(tp, bound, e.st)
			if score > bestScore {
				bestScore = score
				best = i
			}
		}
		tp := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		rows = e.joinPattern(tp, rows)
		for _, v := range tp.Vars() {
			bound[v] = true
		}
	}
	if len(rows) == 0 {
		return nil
	}
	return rows
}

// patternScore ranks a pattern for greedy join ordering: more bound
// positions first, then rarer predicates. The predicate statistic comes
// through the Graph interface, so both the in-memory and the disk backend
// order joins identically on identical data.
func patternScore(tp sparql.TriplePattern, bound map[string]bool, st store.Graph) int {
	score := 0
	for _, pt := range []sparql.PatternTerm{tp.S, tp.P, tp.O} {
		if !pt.IsVar() || bound[pt.Var] {
			score += 1000
		}
	}
	if !tp.P.IsVar() {
		// Prefer selective predicates: subtract (bounded) predicate count.
		c := st.PredicateCount(tp.P.Term)
		if c > 999 {
			c = 999
		}
		score -= c
	}
	return score
}

// joinPattern extends every solution with matches of the pattern.
func (e *Evaluator) joinPattern(tp sparql.TriplePattern, rows []Binding) []Binding {
	var out []Binding
	for _, b := range rows {
		s := resolve(tp.S, b)
		p := resolve(tp.P, b)
		o := resolve(tp.O, b)
		e.st.Match(s, p, o, func(t rdf.Triple) bool {
			nb := extendBinding(b, tp, t)
			if nb != nil {
				out = append(out, nb)
			}
			return true
		})
	}
	return out
}

// resolve turns a pattern position into a concrete match term: nil for an
// unbound variable (wildcard), the bound value for a bound variable, or the
// constant.
func resolve(pt sparql.PatternTerm, b Binding) *rdf.Term {
	if pt.IsVar() {
		if t, ok := b[pt.Var]; ok {
			return &t
		}
		return nil
	}
	t := pt.Term
	return &t
}

// extendBinding binds the pattern's unbound variables from the matched
// triple. It returns nil when the same variable would need two different
// values (e.g. pattern ?x p ?x matching a triple with s != o).
func extendBinding(b Binding, tp sparql.TriplePattern, t rdf.Triple) Binding {
	nb := cloneBinding(b)
	for _, pair := range [3]struct {
		pt  sparql.PatternTerm
		val rdf.Term
	}{{tp.S, t.S}, {tp.P, t.P}, {tp.O, t.O}} {
		if !pair.pt.IsVar() {
			continue
		}
		if existing, ok := nb[pair.pt.Var]; ok {
			if existing != pair.val {
				return nil
			}
			continue
		}
		nb[pair.pt.Var] = pair.val
	}
	return nb
}

func cloneBinding(b Binding) Binding {
	nb := make(Binding, len(b)+2)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

// joinWithResults joins current solutions with a materialized result set on
// their shared variables (used for sub-selects).
func joinWithResults(rows []Binding, sub *sparql.Results) []Binding {
	var out []Binding
	for _, b := range rows {
		for i := range sub.Rows {
			sb := sub.Binding(i)
			if nb := mergeCompatible(b, sb); nb != nil {
				out = append(out, nb)
			}
		}
	}
	return out
}

// joinWithValues joins current solutions with a VALUES block; UNDEF cells
// impose no constraint.
func joinWithValues(rows []Binding, d sparql.InlineData) []Binding {
	var out []Binding
	for _, b := range rows {
		for _, vr := range d.Rows {
			nb := cloneBinding(b)
			ok := true
			for i, v := range d.Vars {
				if vr[i].IsZero() {
					continue
				}
				if existing, bound := nb[v]; bound {
					if existing != vr[i] {
						ok = false
						break
					}
					continue
				}
				nb[v] = vr[i]
			}
			if ok {
				out = append(out, nb)
			}
		}
	}
	return out
}

// mergeCompatible merges two bindings when they agree on shared variables,
// returning nil otherwise.
func mergeCompatible(a, b Binding) Binding {
	nb := cloneBinding(a)
	for k, v := range b {
		if existing, ok := nb[k]; ok {
			if existing != v {
				return nil
			}
			continue
		}
		nb[k] = v
	}
	return nb
}
