// Package eval evaluates SPARQL queries (in the subset defined by package
// sparql) against a store.Graph backend. It is the query engine behind each
// endpoint in the simulated federation, standing in for Jena Fuseki /
// Virtuoso in the paper's experimental setup.
//
// Evaluation runs on dictionary ids: a query's variables are compiled to
// the slots of fixed-width rows of ids, joins compare integers, the
// solution modifiers are the federated engines' own tail (op.Finish) over
// those ids, and terms are decoded only where an expression reads them and
// for the projected columns of the rows that survive.
package eval

import (
	"fmt"

	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/sparql/expr"
	"lusail/internal/store"
)

// Evaluator executes queries against a single graph backend (the in-memory
// store or the disk-backed store).
type Evaluator struct {
	st store.Graph
}

// New returns an evaluator over the given graph backend.
func New(st store.Graph) *Evaluator {
	return &Evaluator{st: st}
}

// evaluation is the state one top-level query shares with the queries
// nested in it: the sub-select memo, so FILTER (NOT) EXISTS { SELECT ... }
// blocks — the shape of Lusail's locality check queries — evaluate their
// inner query once instead of once per candidate row. It lives as long as
// the query, so nothing in it can outlive a change to the store.
type evaluation struct {
	e       *Evaluator
	memo    map[*sparql.Query]*sparql.Results
	members map[*sparql.Query]*members
}

// members is what an EXISTS { SELECT ?v WHERE ... } asks of its sub-select,
// memoized per sub-select: the one projected variable v (empty when it
// projects several), and the values v takes in its solutions. When they
// are exactly its triple patterns' matches (matchesOnly) the values are
// ids, store ids plus one as in every scope of the evaluation, so nothing
// is decoded; otherwise terms, collected on first use.
type members struct {
	v     string
	ids   map[uint32]struct{}
	terms map[rdf.Term]bool
}

// membersOf returns the sub-select's memoized members.
func (ev *evaluation) membersOf(q *sparql.Query) *members {
	if m, ok := ev.members[q]; ok {
		return m
	}
	m := &members{}
	if vars := q.ProjectedVars(); len(vars) == 1 {
		m.v = vars[0]
	}
	if m.v != "" && matchesOnly(q) {
		m.ids = map[uint32]struct{}{}
		sc := newScope(ev)
		sc.addGroup(q.Where)
		if s := sc.slot(m.v); s >= 0 {
			sc.bgp(q.Where.TriplePatterns(), []row{make(row, len(sc.vars))}, func(r row) bool {
				if r[s] != unbound {
					m.ids[r[s]] = struct{}{}
				}
				return true
			})
		}
	}
	if ev.members == nil {
		ev.members = map[*sparql.Query]*members{}
	}
	ev.members[q] = m
	return m
}

// termsOf returns the terms v takes in the sub-select's solutions.
func (ev *evaluation) termsOf(q *sparql.Query, m *members) (map[rdf.Term]bool, error) {
	if m.terms != nil {
		return m.terms, nil
	}
	res, err := ev.subSelect(q)
	if err != nil {
		return nil, err
	}
	idx := res.VarIndex(m.v)
	m.terms = make(map[rdf.Term]bool, len(res.Rows))
	if idx >= 0 {
		for _, row := range res.Rows {
			if !row[idx].IsZero() {
				m.terms[row[idx]] = true
			}
		}
	}
	return m.terms, nil
}

// subSelect evaluates a nested SELECT once per evaluation, except an
// index-answered COUNT: cheaper than the memo, which it would only fill.
func (ev *evaluation) subSelect(q *sparql.Query) (*sparql.Results, error) {
	if res, ok := ev.e.countProbe(q); ok {
		return res, nil
	}
	if res, ok := ev.memo[q]; ok {
		return res, nil
	}
	res, err := ev.query(q)
	if err != nil {
		return nil, err
	}
	if ev.memo == nil {
		ev.memo = map[*sparql.Query]*sparql.Results{}
	}
	ev.memo[q] = res
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

// Query evaluates a parsed query and returns its results, collected from
// Select. ASK queries yield a boolean result set.
func (e *Evaluator) Query(q *sparql.Query) (*sparql.Results, error) {
	return (&evaluation{e: e}).query(q)
}

func (ev *evaluation) query(q *sparql.Query) (*sparql.Results, error) {
	rows, err := ev.selectRows(q)
	if err != nil {
		return nil, err
	}
	res, err := sparql.ReadAllRows(rows)
	if err != nil || q.Form != sparql.AskForm {
		return res, err
	}
	return sparql.BoolResults(res.Len() > 0), nil
}

// Select evaluates a SELECT or ASK query into a cursor over its answer:
// the projected terms of each solution that survives the solution
// modifiers, or for an ASK one empty row when there is a solution. Every
// error comes back here, before the first row. The cursor's row is only
// valid until the next Read.
//
// Matching is depth-first into rows of ids, and the solution modifiers are
// op.Finish, the federated engines' tail, over those ids: only the
// variables the modifiers read are kept (none at all for COUNT(*)), and
// only the projected columns of the rows that survive are decoded. ASK
// queries and plain LIMIT queries over streamable groups (triple
// patterns, filters and VALUES only) stop matching at the limit; Lusail's
// LIMIT 1 check queries depend on this stopping at the first witness.
func (e *Evaluator) Select(q *sparql.Query) (sparql.RowReader, error) {
	return (&evaluation{e: e}).selectRows(q)
}

func (ev *evaluation) selectRows(q *sparql.Query) (sparql.RowReader, error) {
	if q.Form == sparql.ConstructForm {
		return nil, fmt.Errorf("eval: use Construct for CONSTRUCT queries")
	}
	if res, ok := ev.e.countProbe(q); ok {
		return sparql.NewResultsReader(res), nil
	}
	sc := newScope(ev)
	sc.addGroup(q.Where)
	rows, err := sc.evalGroup(q.Where, []row{make(row, len(sc.vars))}, limitHint(q))
	if err != nil {
		return nil, err
	}
	var vars []string
	if q.Form != sparql.AskForm {
		vars = sparql.ModifierVars(q)
	}
	narrowed := op.Align(op.NewSlice(sc.vars, rows), vars)
	c := &cursor{sc: sc, src: op.Finish(q, sc, narrowed)}
	// Prime the stream: a blocking tail fails here or not at all, and
	// knows its columns only once it has run.
	if c.primed = c.src.Next(); !c.primed {
		if err := c.src.Err(); err != nil {
			c.src.Close()
			return nil, err
		}
	}
	return c, nil
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
			ids[i] = localBase // in no triple: above every store id
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
			rows = sc.join(rows, el.Vars, el.Rows)
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
			sub, err := sc.ev.subSelect(el.Query)
			if err != nil {
				return nil, err
			}
			rows = sc.join(rows, sub.Vars, sub.Rows)
		case sparql.Bind:
			flushBGP()
			slot := sc.slot(el.Var)
			next := make([]row, len(rows))
			for i, r := range rows {
				next[i] = r
				if v, err := expr.Eval(el.Expr, rowBinding{sc, r}); err == nil && !v.IsZero() {
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
	// The scope's binding views r for the filters, so no row boxes a new
	// one; an EXISTS in a filter evaluates here again, and restoring the
	// row it found keeps the outer filters' view.
	saved := sc.bind.r
	sc.bind.r = r
	ok := true
	for _, f := range filters {
		if pass, err := expr.EBV(f, &sc.bind); err != nil || !pass {
			ok = false
			break
		}
	}
	sc.bind.r = saved
	return ok
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
		depth[d] = make(row, len(sc.vars))
	}
	// One match callback per depth, made once per call rather than once
	// per partial solution: the walk allocates nothing per row.
	cont := true
	step := make([]func(s, pr, o uint32) bool, len(order))
	walk := func(d int) {
		if d == len(order) {
			cont = emit(depth[d])
			return
		}
		ids := pats[order[d]].resolve(depth[d])
		sc.st.MatchIDs(ids[0], ids[1], ids[2], step[d])
	}
	for d := range step {
		p, next := &pats[order[d]], depth[d+1]
		step[d] = func(s, pr, o uint32) bool {
			copy(next, depth[d])
			if p.bind(next, [3]uint32{s, pr, o}) {
				walk(d + 1)
			}
			return cont
		}
	}
	for _, seed := range seeds {
		depth[0] = seed
		if walk(0); !cont {
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
	bound := make([]bool, len(sc.vars))
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

// join joins the rows with a relation of terms (a VALUES block, a
// sub-select's results) by op's join rule. The rows are the table and the
// relation's tuples probe it, so a VALUES block that seeds the patterns —
// one all-unbound row — builds no index.
func (sc *scope) join(rows []row, vars []string, rel [][]rdf.Term) []row {
	sh := op.Share(sc.vars, vars)
	t := op.NewTable(sh.Left, len(rows))
	for _, r := range rows {
		t.Add(r)
	}
	var p op.Probe
	tuple := make(row, len(vars))
	var out []row
	for _, cells := range rel {
		sc.InternRow(cells, tuple)
		for _, i := range t.Matches(tuple, sh.Right, &p) {
			out = append(out, sh.Combine(sc.newRow(), t.Row(i), tuple))
		}
	}
	return out
}
