// Package eval evaluates SPARQL queries (in the subset defined by package
// sparql) against a store.Graph backend. It is the query engine behind each
// endpoint in the simulated federation, standing in for Jena Fuseki /
// Virtuoso in the paper's experimental setup.
//
// Evaluation runs on dictionary ids: a query's variables are compiled to
// the slots of fixed-width rows of ids, joins and DISTINCT compare
// integers, and terms are decoded only where an expression reads them and
// for the projected columns of the result.
package eval

import (
	"encoding/binary"
	"fmt"
	"sync"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

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

// subSelect evaluates a nested SELECT, memoized per store version, except
// an index-answered COUNT: cheaper than the memo, which it would churn.
func (e *Evaluator) subSelect(q *sparql.Query) (*sparql.Results, error) {
	if res, ok := e.countProbe(q); ok {
		return res, nil
	}
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
// patterns, filters and VALUES only) stop at the limit instead of
// materializing every solution; Lusail's LIMIT 1 check queries depend on
// this stopping at the first witness.
func (e *Evaluator) Query(q *sparql.Query) (*sparql.Results, error) {
	if q.Form == sparql.ConstructForm {
		return nil, fmt.Errorf("eval: use Construct for CONSTRUCT queries")
	}
	if res, ok := e.countProbe(q); ok {
		return res, nil
	}
	sc := newScope(e)
	sc.addGroup(q.Where)
	rows, err := sc.evalGroup(q.Where, []row{sc.emptyRow()}, limitHint(q))
	if err != nil {
		return nil, err
	}
	if q.Form == sparql.AskForm {
		return sparql.BoolResults(len(rows) > 0), nil
	}
	return sc.finishSelect(q, rows)
}

// countProbe answers SAPE's cardinality probe, SELECT (COUNT(*) AS ?c)
// over a single triple pattern, from the index bounds without visiting a
// match. A pattern that repeats a variable (?x p ?x) counts only the
// matches that agree with themselves and takes the join path.
func (e *Evaluator) countProbe(q *sparql.Query) (*sparql.Results, bool) {
	if q.Form != sparql.SelectForm || q.Distinct || len(q.GroupBy) > 0 ||
		len(q.Projection) != 1 || len(q.Where.Elements) != 1 {
		return nil, false
	}
	agg := q.Projection[0].Agg
	if agg == nil || agg.Func != "COUNT" || agg.Var != "" || agg.Distinct {
		return nil, false
	}
	tp, ok := q.Where.Elements[0].(sparql.TriplePattern)
	if !ok {
		return nil, false
	}
	var ids [3]uint32
	vars := 0
	for i, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
		ids[i] = store.Wildcard
		if pt.IsVar() {
			vars++
		} else if id, found := e.st.Lookup(pt.Term); found {
			ids[i] = id
		} else {
			ids[i] = localBase // in no triple
		}
	}
	if vars != len(tp.Vars()) {
		return nil, false
	}
	res := sparql.NewResults([]string{q.Projection[0].Var})
	if q.Offset == 0 && q.Limit != 0 {
		n := e.st.CountIDs(ids[0], ids[1], ids[2])
		res.Rows = [][]rdf.Term{{rdf.NewInteger(int64(n))}}
	}
	return res, true
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

// streamable reports whether the group consists solely of triple patterns,
// filters and VALUES blocks, so one depth-first pass over the VALUES rows
// with the filters at the leaves is equivalent to full evaluation.
func streamable(g *sparql.GroupPattern) bool {
	for _, el := range g.Elements {
		switch el.(type) {
		case sparql.TriplePattern, sparql.Filter, sparql.InlineData:
		default:
			return false
		}
	}
	return true
}

// finishSelect decodes the solutions into a positional relation over the
// variables the solution modifiers read — none at all for COUNT(*) — and
// hands it to the shared modifier tail. Without grouping or ordering those
// variables are the projection, so DISTINCT, OFFSET and LIMIT run on ids
// first and only the surviving rows are decoded.
func (sc *scope) finishSelect(q *sparql.Query, rows []row) (*sparql.Results, error) {
	vars := sparql.ModifierVars(q)
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = sc.slot(v)
	}
	if len(q.GroupBy) == 0 && !q.HasAggregates() && len(q.OrderBy) == 0 {
		if q.Distinct {
			rows = distinctRows(rows, cols)
		}
		rows = rows[min(q.Offset, len(rows)):]
		if q.Limit >= 0 && q.Limit < len(rows) {
			rows = rows[:q.Limit]
		}
		tail := *q
		tail.Distinct, tail.Offset, tail.Limit = false, 0, -1
		q = &tail
	}
	rel := sparql.NewResults(vars)
	rel.Rows = make([][]rdf.Term, len(rows))
	if n := len(vars); n > 0 {
		cells := make([]rdf.Term, len(rows)*n)
		for r, ids := range rows {
			out := cells[r*n : (r+1)*n : (r+1)*n]
			for i, c := range cols {
				if c >= 0 {
					out[i] = sc.term(ids[c])
				}
			}
			rel.Rows[r] = out
		}
	}
	return sparql.ApplyModifiers(q, rel)
}

// distinctRows keeps the first of the rows that agree on every column.
func distinctRows(rows []row, cols []int) []row {
	seen := make(map[string]struct{}, len(rows))
	out := make([]row, 0, len(rows))
	key := make([]byte, 4*len(cols))
	for _, r := range rows {
		for i, c := range cols {
			id := unbound
			if c >= 0 {
				id = r[c]
			}
			binary.LittleEndian.PutUint32(key[4*i:], id)
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// evalGroup evaluates a group graph pattern seeded with the given rows and
// returns at most limit solutions (every one when limit < 0). Filters apply
// to the whole group, per SPARQL scoping rules.
func (sc *scope) evalGroup(g *sparql.GroupPattern, input []row, limit int) ([]row, error) {
	if limit == 0 {
		return nil, nil
	}
	rows := input
	// Hoist VALUES blocks to the front: joining the inline data first seeds
	// the basic graph pattern with bound variables, so bound subqueries
	// (Lusail's and FedX's VALUES-based bound joins) evaluate with index
	// lookups instead of scanning and post-filtering. Join is commutative,
	// so this is semantics-preserving.
	var filters []sparql.Expr
	for _, el := range g.Elements {
		switch el := el.(type) {
		case sparql.InlineData:
			rows = sc.joinTerms(rows, el.Vars, el.Rows)
		case sparql.Filter:
			filters = append(filters, el.Expr)
		}
	}
	if streamable(g) {
		var out []row
		sc.bgp(g.TriplePatterns(), rows, func(r row) bool {
			if sc.passes(filters, r) {
				out = append(out, sc.copyRow(r))
			}
			return limit < 0 || len(out) < limit
		})
		return out, nil
	}

	var bgp []sparql.TriplePattern
	flushBGP := func() {
		if len(bgp) > 0 {
			var out []row
			sc.bgp(bgp, rows, func(r row) bool {
				out = append(out, sc.copyRow(r))
				return true
			})
			rows, bgp = out, nil
		}
	}
	for _, el := range g.Elements {
		switch el := el.(type) {
		case sparql.TriplePattern:
			bgp = append(bgp, el)
		case sparql.Filter, sparql.InlineData:
			// Collected and joined above.
		case sparql.Optional:
			flushBGP()
			next := make([]row, 0, len(rows))
			for _, r := range rows {
				ext, err := sc.evalGroup(el.Group, []row{r}, -1)
				if err != nil {
					return nil, err
				}
				if len(ext) == 0 {
					next = append(next, r)
				} else {
					next = append(next, ext...)
				}
			}
			rows = next
		case sparql.Union:
			flushBGP()
			var next []row
			for _, br := range el.Branches {
				out, err := sc.evalGroup(br, rows, -1)
				if err != nil {
					return nil, err
				}
				next = append(next, out...)
			}
			rows = next
		case sparql.SubSelect:
			flushBGP()
			sub, err := sc.e.subSelect(el.Query)
			if err != nil {
				return nil, err
			}
			rows = sc.joinTerms(rows, sub.Vars, sub.Rows)
		case sparql.Bind:
			flushBGP()
			slot := sc.slot(el.Var)
			next := make([]row, len(rows))
			for i, r := range rows {
				next[i] = r
				if v, err := evalExpr(el.Expr, rowBinding{sc, r}); err == nil && !v.IsZero() {
					nr := sc.copyRow(r)
					nr[slot] = sc.id(v)
					next[i] = nr
				}
			}
			rows = next
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
	kept := make([]row, 0, len(rows))
	for _, r := range rows {
		if sc.passes(filters, r) {
			kept = append(kept, r)
		}
	}
	if limit >= 0 && len(kept) > limit {
		kept = kept[:limit]
	}
	return kept, nil
}

// passes reports whether the row satisfies every filter; an expression
// error removes the row.
func (sc *scope) passes(filters []sparql.Expr, r row) bool {
	for _, f := range filters {
		if ok, err := evalEBV(f, rowBinding{sc, r}); err != nil || !ok {
			return false
		}
	}
	return true
}

// bgp joins the triple patterns into every seed row depth-first, in one
// order joinOrder picks for the whole evaluation, and hands each complete
// solution to emit until emit returns false. The row emit sees is scratch
// space: copy it to keep it.
func (sc *scope) bgp(tps []sparql.TriplePattern, seeds []row, emit func(row) bool) {
	if len(seeds) == 0 {
		return
	}
	pats := make([]pattern, len(tps))
	for i, tp := range tps {
		pats[i] = sc.compile(tp)
	}
	order := sc.joinOrder(pats, seeds[0])
	depth := make([]row, len(order)+1)
	for d := 1; d < len(depth); d++ {
		depth[d] = make(row, sc.width)
	}
	var walk func(d int) bool
	walk = func(d int) bool {
		if d == len(order) {
			return emit(depth[d])
		}
		p := &pats[order[d]]
		cur, next := depth[d], depth[d+1]
		ids := p.resolve(cur)
		cont := true
		sc.st.MatchIDs(ids[0], ids[1], ids[2], func(s, pr, o uint32) bool {
			copy(next, cur)
			if p.bind(next, [3]uint32{s, pr, o}) {
				cont = walk(d + 1)
			}
			return cont
		})
		return cont
	}
	for _, seed := range seeds {
		depth[0] = seed
		if !walk(0) {
			return
		}
	}
}

// joinOrder decides, once per evaluation, the order bgp joins the patterns
// in: each step takes, from the patterns that share a variable with those
// already bound (every pattern when none does), the one with the fewest
// matches under its constants and the first seed row's bindings. Ties go
// to the pattern written first.
func (sc *scope) joinOrder(pats []pattern, seed row) []int {
	order := make([]int, 0, len(pats))
	if len(pats) == 1 {
		return append(order, 0)
	}
	counts := make([]int, len(pats))
	for i := range pats {
		ids := pats[i].resolve(seed)
		counts[i] = sc.st.CountIDs(ids[0], ids[1], ids[2])
	}
	bound := make([]bool, sc.width)
	for i, id := range seed {
		bound[i] = id != unbound
	}
	done := make([]bool, len(pats))
	for len(order) < len(pats) {
		best, bestLinked := -1, false
		for i := range pats {
			if done[i] {
				continue
			}
			linked := pats[i].linked(bound)
			if best < 0 || linked && !bestLinked || linked == bestLinked && counts[i] < counts[best] {
				best, bestLinked = i, linked
			}
		}
		done[best] = true
		order = append(order, best)
		for _, s := range pats[best].slot {
			if s >= 0 {
				bound[s] = true
			}
		}
	}
	return order
}

// joinTerms is the nested-loop join of the rows with a relation of terms
// (a VALUES block, a sub-select's results): a pair joins when it agrees on
// every variable both bind, and a zero cell (UNDEF, unbound) binds nothing.
func (sc *scope) joinTerms(rows []row, vars []string, rel [][]rdf.Term) []row {
	slots := make([]int, len(vars))
	for i, v := range vars {
		slots[i] = sc.slot(v)
	}
	vals := make([][]uint32, len(rel))
	for i, cells := range rel {
		vals[i] = make([]uint32, len(cells))
		for j, t := range cells {
			vals[i][j] = sc.id(t)
		}
	}
	var out []row
	for _, r := range rows {
	next:
		for _, vr := range vals {
			for i, s := range slots {
				if s >= 0 && vr[i] != unbound && r[s] != unbound && r[s] != vr[i] {
					continue next
				}
			}
			nr := sc.copyRow(r)
			for i, s := range slots {
				if s >= 0 && vr[i] != unbound {
					nr[s] = vr[i]
				}
			}
			out = append(out, nr)
		}
	}
	return out
}
