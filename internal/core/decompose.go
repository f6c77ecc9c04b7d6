package core

import (
	"math"
	"slices"

	"lusail/internal/qplan"
	"lusail/internal/sparql"
)

// decompose implements Algorithm 2: it splits the branch's conjunctive
// pattern set into subqueries such that (i) every pattern pair inside a
// subquery shares the same relevant sources and (ii) no pair shares a
// global join variable. It enumerates one decomposition per GJV root (plus
// connected-component continuation for disconnected graphs), estimates each
// decomposition's cost from the COUNT statistics, and returns the cheapest.
func (e *Engine) decompose(br *qplan.Branch, sources [][]string, gjv *GJVResult, stats *queryStats) []*Subquery {
	patterns := br.Patterns
	g := buildQueryGraph(patterns)

	// Line 3: no GJVs — the whole (connected component of the) query is one
	// subquery per component.
	roots := gjvRootNodes(gjv, g)
	if len(roots) == 0 {
		return e.componentsAsSubqueries(br, sources, g, stats)
	}

	var best []*Subquery
	bestCost := math.Inf(1)
	for _, root := range roots {
		sqs := e.decomposeFrom(root, g, patterns, sources, gjv)
		sqs = mergeSubqueries(sqs, gjv)
		cost := e.decompositionCost(sqs, patterns, stats)
		if cost < bestCost {
			bestCost = cost
			best = sqs
		}
	}
	e.pushDown(br, best)
	e.estimate(best, patterns, stats)
	return best
}

// queryGraph models the query as an undirected graph whose vertices are the
// subject/object terms and whose edges are the triple patterns.
type queryGraph struct {
	nodeKeys []string         // vertex keys in first-seen order
	adj      map[string][]int // vertex key -> incident pattern indexes
	ends     [][2]string      // pattern index -> (subject key, object key)
}

func termKey(pt sparql.PatternTerm) string {
	if pt.IsVar() {
		return "?" + pt.Var
	}
	return pt.Term.String()
}

func buildQueryGraph(patterns []sparql.TriplePattern) *queryGraph {
	g := &queryGraph{adj: map[string][]int{}}
	touch := func(k string) {
		if _, ok := g.adj[k]; !ok {
			g.adj[k] = nil
			g.nodeKeys = append(g.nodeKeys, k)
		}
	}
	for i, tp := range patterns {
		sk, ok := termKey(tp.S), termKey(tp.O)
		touch(sk)
		touch(ok)
		g.adj[sk] = append(g.adj[sk], i)
		if ok != sk {
			g.adj[ok] = append(g.adj[ok], i)
		}
		g.ends = append(g.ends, [2]string{sk, ok})
	}
	return g
}

// otherEnd returns the vertex at the far side of pattern i from vertex k.
func (g *queryGraph) otherEnd(i int, k string) string {
	if g.ends[i][0] == k {
		return g.ends[i][1]
	}
	return g.ends[i][0]
}

// gjvRootNodes returns the graph vertices of the GJVs, in stable order.
func gjvRootNodes(gjv *GJVResult, g *queryGraph) []string {
	var out []string
	for _, v := range gjv.GlobalVars() {
		key := "?" + v
		if _, ok := g.adj[key]; ok {
			out = append(out, key)
		}
	}
	return out
}

// conflict reports whether two patterns share a global join variable and
// therefore must not live in the same subquery.
func conflict(a, b sparql.TriplePattern, gjv *GJVResult) bool {
	for _, v := range a.Vars() {
		if gjv.IsGlobal(v) && b.HasVar(v) {
			return true
		}
	}
	return false
}

// decomposeFrom runs the branching phase of Algorithm 2 with the given root
// vertex, then continues from unvisited patterns so disconnected query
// graphs are fully covered.
func (e *Engine) decomposeFrom(root string, g *queryGraph, patterns []sparql.TriplePattern, sources [][]string, gjv *GJVResult) []*Subquery {
	visited := make([]bool, len(patterns))
	var subqueries []*Subquery
	var stack []string
	inStack := map[string]bool{}
	push := func(k string) {
		if !inStack[k] {
			inStack[k] = true
			stack = append(stack, k)
		}
	}
	push(root)

	newSubquery := func(i int) {
		subqueries = append(subqueries, &Subquery{
			Patterns:   []sparql.TriplePattern{patterns[i]},
			Sources:    sources[i],
			patternIdx: []int{i},
		})
	}

	canBeAdded := func(sq *Subquery, i int) bool {
		if !sameSources(sq.Sources, sources[i]) {
			return false
		}
		for _, p := range sq.Patterns {
			if conflict(p, patterns[i], gjv) {
				return false
			}
		}
		return true
	}

	// getParentSubquery: the most recent subquery containing a pattern
	// incident to the vertex.
	parentOf := func(k string) *Subquery {
		for s := len(subqueries) - 1; s >= 0; s-- {
			for _, pi := range subqueries[s].patternIdx {
				if g.ends[pi][0] == k || g.ends[pi][1] == k {
					return subqueries[s]
				}
			}
		}
		return nil
	}

	for {
		for len(stack) > 0 {
			k := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			parent := parentOf(k)
			for _, i := range g.adj[k] {
				if visited[i] {
					continue
				}
				visited[i] = true
				if parent != nil && canBeAdded(parent, i) {
					parent.Patterns = append(parent.Patterns, patterns[i])
					parent.patternIdx = append(parent.patternIdx, i)
				} else {
					newSubquery(i)
					parent = subqueries[len(subqueries)-1]
					// Note: subsequent edges of this vertex retry the same
					// new subquery first, mirroring the paper's expansion.
				}
				push(g.otherEnd(i, k))
			}
		}
		// Disconnected component: restart from any unvisited pattern.
		next := -1
		for i, v := range visited {
			if !v {
				next = i
				break
			}
		}
		if next < 0 {
			return subqueries
		}
		push(g.ends[next][0])
	}
}

// mergeSubqueries implements the merging phase: two subqueries merge when
// they share at least one variable, have the same sources, and no pattern
// pair across them conflicts on a GJV. Runs to fixpoint.
func mergeSubqueries(sqs []*Subquery, gjv *GJVResult) []*Subquery {
	merged := true
	for merged {
		merged = false
	outer:
		for i := 0; i < len(sqs); i++ {
			for j := i + 1; j < len(sqs); j++ {
				if !sameSources(sqs[i].Sources, sqs[j].Sources) || len(sqs[i].SharedVars(sqs[j])) == 0 ||
					slices.ContainsFunc(sqs[i].Patterns, func(pa sparql.TriplePattern) bool {
						return slices.ContainsFunc(sqs[j].Patterns, func(pb sparql.TriplePattern) bool { return conflict(pa, pb, gjv) })
					}) {
					continue
				}
				sqs[i].Patterns = append(sqs[i].Patterns, sqs[j].Patterns...)
				sqs[i].patternIdx = append(sqs[i].patternIdx, sqs[j].patternIdx...)
				sqs = append(sqs[:j], sqs[j+1:]...)
				merged = true
				break outer
			}
		}
	}
	return sqs
}

// componentsAsSubqueries handles the GJV-free case: one subquery per
// connected component of the query graph.
func (e *Engine) componentsAsSubqueries(br *qplan.Branch, sources [][]string, g *queryGraph, stats *queryStats) []*Subquery {
	patterns := br.Patterns
	comp := make([]int, len(patterns))
	for i := range comp {
		comp[i] = -1
	}
	nComp := 0
	for i := range patterns {
		if comp[i] >= 0 {
			continue
		}
		// BFS over patterns connected through shared vertices.
		queue := []int{i}
		comp[i] = nComp
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, end := range g.ends[p] {
				for _, q := range g.adj[end] {
					if comp[q] < 0 {
						comp[q] = nComp
						queue = append(queue, q)
					}
				}
			}
		}
		nComp++
	}
	sqs := make([]*Subquery, nComp)
	for i, tp := range patterns {
		c := comp[i]
		if sqs[c] == nil {
			sqs[c] = &Subquery{Sources: sources[i]}
		}
		sqs[c].Patterns = append(sqs[c].Patterns, tp)
		sqs[c].patternIdx = append(sqs[c].patternIdx, i)
		// All patterns in a GJV-free component share one source set; keep
		// the intersection defensively.
		sqs[c].Sources = intersectSources(sqs[c].Sources, sources[i])
	}
	e.pushDown(br, sqs)
	e.estimate(sqs, patterns, stats)
	return sqs
}

// pushDown pushes each branch filter, and each VALUES block of the query
// text, into every subquery that binds all of its variables, so that the
// endpoints ship only the rows that can survive them. Normalize split the
// filters into conjuncts, so each conjunct goes wherever its own variables
// are bound. Filters and VALUES blocks without variables are pushed
// nowhere. A pushed VALUES block still joins the stream in branchStream,
// which keeps op's join rule on UNDEF cells, and the block's row
// multiplicity, the only ones that decide the answer: the endpoint's copy
// only drops rows no VALUES row is compatible with, so it carries each
// distinct row once, and the subquery's plain SELECT ships no duplicate.
func (e *Engine) pushDown(br *qplan.Branch, sqs []*Subquery) {
	values := slices.Clone(br.Values)
	for i := range values {
		values[i].Rows = sparql.DistinctRows(values[i].Rows)
	}
	for _, sq := range sqs {
		for _, f := range br.Filters {
			if pushed(sq, f) {
				sq.Filters = append(sq.Filters, f)
			}
		}
		for _, vd := range values {
			if len(vd.Vars) > 0 && !slices.ContainsFunc(vd.Vars, func(v string) bool { return !sq.HasVar(v) }) {
				sq.Values = append(sq.Values, vd)
			}
		}
	}
}

// pushed reports whether pushDown pushes the filter into sq.
func pushed(sq *Subquery, f sparql.Expr) bool {
	return len(sparql.ExprVars(f)) > 0 && covers(sq.Vars(), f)
}

// residualFilters returns the branch filters that no mandatory subquery
// enforces, which the branch's pipeline evaluates on joined rows. A filter
// pushed into a mandatory subquery holds on each of its rows, and so on
// every row of the branch: joins never rebind a bound variable.
func residualFilters(br *qplan.Branch, sqs []*Subquery) []sparql.Expr {
	var out []sparql.Expr
	for _, f := range br.Filters {
		if !slices.ContainsFunc(sqs, func(sq *Subquery) bool { return pushed(sq, f) }) {
			out = append(out, f)
		}
	}
	return out
}

// estimate sets EstCard and the per-variable estimates on each subquery
// from the collected statistics.
func (e *Engine) estimate(sqs []*Subquery, patterns []sparql.TriplePattern, stats *queryStats) {
	for _, sq := range sqs {
		vars := sq.Vars()
		sq.varCards = make([]float64, len(vars))
		sq.EstCard = 0
		for i, v := range vars {
			sq.varCards[i] = stats.varCardinality(sq, sq.patternIdx, v, patterns)
			sq.EstCard = max(sq.EstCard, sq.varCards[i])
		}
		sq.CardKnown = stats.known(sq.patternIdx, sq.Sources)
	}
}

// decompositionCost scores a decomposition as the total estimated
// intermediate-result size across subqueries.
func (e *Engine) decompositionCost(sqs []*Subquery, patterns []sparql.TriplePattern, stats *queryStats) float64 {
	cost := 0.0
	for _, sq := range sqs {
		cost += stats.subqueryCardinality(sq, sq.patternIdx, patterns)
	}
	return cost
}
