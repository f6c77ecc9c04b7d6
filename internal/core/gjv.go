package core

import (
	"context"
	"slices"
	"sort"

	"lusail/internal/qplan"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// GJVResult records the outcome of global-join-variable detection
// (Algorithm 1): the set of GJVs and, for diagnostics, the pattern pairs
// that caused each variable to become global.
type GJVResult struct {
	// Global maps each global join variable to true.
	Global map[string]bool
	// CausePairs maps a GJV to the index pairs (into the analyzed pattern
	// list) whose instance-locality check failed.
	CausePairs map[string][][2]int
	// ChecksIssued counts the check queries sent to endpoints.
	ChecksIssued int
	// CacheHits counts check queries answered from the cache.
	CacheHits int
}

// IsGlobal reports whether v is a global join variable.
func (r *GJVResult) IsGlobal(v string) bool { return r.Global[v] }

// GlobalVars returns the sorted list of GJVs.
func (r *GJVResult) GlobalVars() []string {
	out := make([]string, 0, len(r.Global))
	for v := range r.Global {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// varRole describes how a variable occurs across the patterns that mention it.
type varRole struct {
	name    string
	subjIdx []int // patterns where it is the subject
	objIdx  []int // patterns where it is the object
	predIdx []int // patterns where it is the predicate
	allIdx  []int // union, in pattern order
}

// joinEntities returns the variables that appear in two or more patterns,
// with their roles (getJoinEntities in Algorithm 1).
func joinEntities(patterns []sparql.TriplePattern) []varRole {
	byVar := map[string]*varRole{}
	order := []string{}
	touch := func(v string) *varRole {
		r, ok := byVar[v]
		if !ok {
			r = &varRole{name: v}
			byVar[v] = r
			order = append(order, v)
		}
		return r
	}
	for i, tp := range patterns {
		seenHere := map[string]bool{}
		record := func(v string, role int) {
			if v == "" {
				return
			}
			r := touch(v)
			switch role {
			case 0:
				r.subjIdx = append(r.subjIdx, i)
			case 1:
				r.predIdx = append(r.predIdx, i)
			case 2:
				r.objIdx = append(r.objIdx, i)
			}
			if !seenHere[v] {
				seenHere[v] = true
				r.allIdx = append(r.allIdx, i)
			}
		}
		record(tp.S.Var, 0)
		record(tp.P.Var, 1)
		record(tp.O.Var, 2)
	}
	var out []varRole
	for _, v := range order {
		r := byVar[v]
		if len(r.allIdx) >= 2 {
			out = append(out, *r)
		}
	}
	return out
}

// detectGJVs implements Algorithm 1 for a conjunctive branch; sources[i]
// lists the relevant endpoints of its i-th pattern. Its check queries
// (lines 17-23) are the second planning round, which also counts each
// pattern that has pushed filters under them into stats.
// The query's rdf:type patterns narrow the check queries, per Figure 5.
func (e *Engine) detectGJVs(ctx context.Context, br *qplan.Branch, sources [][]string, stats *queryStats) (*GJVResult, error) {
	patterns := br.Patterns
	res := &GJVResult{Global: map[string]bool{}, CausePairs: map[string][][2]int{}}
	vars := joinEntities(patterns)
	typeOf := typeConstraints(patterns)

	type pendingCheck struct {
		varName string
		pair    [2]int
		queries []checkQuery
	}
	var pending []pendingCheck

	for _, vr := range vars {
		// A variable used in predicate position that joins with other
		// patterns is conservatively global (sound by Lemma 2; the paper
		// defers variable-predicate joins to the extended version).
		if len(vr.predIdx) > 0 {
			res.Global[vr.name] = true
			continue
		}
		global := false
		// Lines 8-11: patterns from different sources force a GJV without
		// any check queries.
		pairs := pairIndexes(vr.allIdx)
		for _, pr := range pairs {
			if !sameSources(sources[pr[0]], sources[pr[1]]) {
				res.Global[vr.name] = true
				res.CausePairs[vr.name] = append(res.CausePairs[vr.name], pr)
				global = true
			}
		}
		if global {
			continue
		}
		// Lines 13-16: formulate check queries.
		switch {
		case len(vr.subjIdx) > 0 && len(vr.objIdx) > 0:
			// Subject and object: for each (object pattern, subject
			// pattern) pair, instances seen as objects must exist locally
			// as subjects (Figure 5).
			for _, oi := range vr.objIdx {
				for _, si := range vr.subjIdx {
					if oi == si {
						continue
					}
					pending = append(pending, pendingCheck{
						varName: vr.name,
						pair:    [2]int{oi, si},
						queries: []checkQuery{makeCheck(vr.name, patterns[oi], patterns[si], typeOf, sources[oi])},
					})
				}
			}
		case len(vr.objIdx) > 0 && len(vr.subjIdx) == 0:
			// Object only. Per-endpoint set-difference checks cannot see
			// the paper's Section 3.3 Case 2: the same object URI may be
			// referenced from several endpoints (incoming interlinks), in
			// which case the cross-endpoint combinations must be joined at
			// the Lusail server. We realize that server-side join by
			// escalating the variable to a GJV whenever its patterns span
			// more than one endpoint (sound by Lemma 2); with a single
			// relevant endpoint everything is local by construction.
			for _, pr := range pairs {
				if len(sources[pr[0]]) > 1 {
					res.Global[vr.name] = true
					res.CausePairs[vr.name] = append(res.CausePairs[vr.name], pr)
				}
			}
		default:
			// Subject only: both set differences must be empty, so check
			// each direction of each pair. (All triples of a subject live
			// at its authoritative endpoint, so a subject-only join cannot
			// straddle endpoints undetected.)
			for _, pr := range pairs {
				pending = append(pending, pendingCheck{
					varName: vr.name,
					pair:    pr,
					queries: []checkQuery{
						makeCheck(vr.name, patterns[pr[0]], patterns[pr[1]], typeOf, sources[pr[0]]),
						makeCheck(vr.name, patterns[pr[1]], patterns[pr[0]], typeOf, sources[pr[1]]),
					},
				})
			}
		}
	}

	// Lines 17-23: every check the fact cache cannot answer and every
	// filtered COUNT, in one request per endpoint.
	r := &round{byEP: map[string][]question{}, failed: map[string]bool{}, lost: map[string]bool{}, stats: stats}
	queue := func(srcs []string, q question) {
		for _, name := range srcs {
			r.byEP[name] = append(r.byEP[name], q)
		}
	}
	var sent []*checkQuery
	for _, pc := range pending {
		for i := range pc.queries {
			cq := &pc.queries[i]
			if _, seen := r.failed[cq.key]; seen {
				continue
			}
			if failed, ok := e.facts.check(cq.key); ok {
				res.CacheHits++
				r.failed[cq.key] = failed
				continue
			}
			r.failed[cq.key] = false
			sent = append(sent, cq)
			queue(cq.sources, question{check: cq})
			res.ChecksIssued += len(cq.sources)
		}
	}
	for i, tp := range patterns {
		filters, _ := coveredFilters(tp.Vars(), br.Filters)
		if len(filters) == 0 {
			continue
		}
		// Source selection's counts ignore the filters.
		stats.card[i] = map[string]float64{}
		if e.opts.CatalogOnly {
			continue
		}
		count := []sparql.Element{tp}
		for _, f := range filters {
			count = append(count, sparql.Filter{Expr: f})
		}
		queue(sources[i], question{pattern: i, count: count})
		stats.probes += len(sources[i])
	}
	if err := e.ask(ctx, r); err != nil {
		return nil, err
	}

	for _, cq := range sent {
		if !r.failed[cq.key] && r.lost[cq.key] {
			// Some endpoint never answered: a local verdict would be
			// unsound, and a degraded one must not outlive the failure.
			r.failed[cq.key] = true
		} else {
			e.facts.putCheck(cq.key, r.failed[cq.key])
		}
	}
	for _, pc := range pending {
		if slices.ContainsFunc(pc.queries, func(cq checkQuery) bool { return r.failed[cq.key] }) {
			res.Global[pc.varName] = true
			res.CausePairs[pc.varName] = append(res.CausePairs[pc.varName], pc.pair)
		}
	}
	return res, nil
}

// checkQuery is one locality probe to run at a set of endpoints.
type checkQuery struct {
	key     string               // cache key
	text    string               // SPARQL text, SELECT ?v … LIMIT 1
	where   *sparql.GroupPattern // its WHERE clause, which a batch asks as EXISTS
	sources []string             // endpoints to probe
}

// makeCheck builds the Figure 5 check query testing whether some binding of
// v in tpOuter lacks a local counterpart in tpInner.
//
// The paper narrows the check with v's rdf:type pattern when the query has
// one. That narrowing is only sound when the type triple is co-located with
// the outer occurrence of v, which holds when v is the *subject* of the
// outer pattern (an entity's triples, including its type, live at its
// authoritative endpoint). When v is the object, the referenced entity may
// live elsewhere and the type constraint would hide the very witness the
// check looks for — so we omit it there.
//
// The cache key normalizes both patterns with a *shared* variable mapping
// in which v gets a reserved name, so it captures v's positions in both
// patterns and any other cross-pattern sharing — normalizing each pattern
// on its own would collide, e.g., a subject-only check with a
// subject/object check over the same predicates — then adds the type
// narrowing and the sources.
func makeCheck(v string, tpOuter, tpInner sparql.TriplePattern, typeOf map[string]sparql.TriplePattern, sources []string) checkQuery {
	q := sparql.NewSelect(v)
	q.Limit = 1
	key := sparql.PatternKey(map[string]string{v: "?JV"}, tpOuter, tpInner)
	if tt, ok := typeOf[v]; ok && tpOuter.S.Var == v {
		q.Where.Elements = append(q.Where.Elements, tt)
		key += "|type=" + tt.O.String()
	}
	q.Where.Elements = append(q.Where.Elements, tpOuter)

	inner := sparql.NewSelect(v)
	inner.Where.Elements = append(inner.Where.Elements, renameExcept(tpInner, v))
	q.Where.Elements = append(q.Where.Elements, sparql.Filter{
		Expr: sparql.ExprExists{Not: true, Group: &sparql.GroupPattern{
			Elements: []sparql.Element{sparql.SubSelect{Query: inner}},
		}},
	})
	return checkQuery{
		key:     key + "|" + sourcesKey(sources),
		text:    q.String(),
		where:   q.Where,
		sources: sources,
	}
}

// renameExcept renames all variables of tp except keep, so the inner check
// pattern cannot accidentally correlate with outer variables.
func renameExcept(tp sparql.TriplePattern, keep string) sparql.TriplePattern {
	ren := func(pt sparql.PatternTerm, pos string) sparql.PatternTerm {
		if pt.IsVar() && pt.Var != keep {
			return sparql.Var(pt.Var + "_chk" + pos)
		}
		return pt
	}
	return sparql.TriplePattern{S: ren(tp.S, "s"), P: ren(tp.P, "p"), O: ren(tp.O, "o")}
}

// typeConstraints maps each variable to an rdf:type pattern constraining it,
// when the query contains one with a constant class.
func typeConstraints(patterns []sparql.TriplePattern) map[string]sparql.TriplePattern {
	out := map[string]sparql.TriplePattern{}
	for _, tp := range patterns {
		if tp.S.IsVar() && !tp.P.IsVar() && tp.P.Term.Value == rdf.RDFType && !tp.O.IsVar() {
			if _, dup := out[tp.S.Var]; !dup {
				out[tp.S.Var] = tp
			}
		}
	}
	return out
}

func pairIndexes(idx []int) [][2]int {
	var out [][2]int
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			out = append(out, [2]int{idx[i], idx[j]})
		}
	}
	return out
}
