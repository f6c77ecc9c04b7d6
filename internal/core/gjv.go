package core

import (
	"context"
	"slices"
	"sort"
	"time"

	"lusail/internal/obs"
	"lusail/internal/qplan"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/sparql/sema"
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

// analysis is the part of Algorithm 1 that needs only a branch's text,
// formulated before the first planning round so that its questions can
// ride in that round's batches: the join variables, the check queries of
// lines 13-16 for every variable line 8's shortcut might leave local, and
// the COUNT of each pattern under the branch filters it covers.
type analysis struct {
	vars   []varRole
	pairs  [][]pendingCheck // per join variable, the pairs its checks decide
	counts []*probe         // per pattern, its filtered COUNT, or nil
}

// pendingCheck is a pattern pair whose variable is global when one of its
// checks finds a witness at an endpoint relevant to the check's outer
// pattern.
type pendingCheck struct {
	varName string
	pair    [2]int
	checks  []check
}

// check is a check query asked at the relevant endpoints of the branch's
// pattern outer.
type check struct {
	p     *probe
	outer int
}

// analyze formulates a branch's analysis. Its probes are the query's
// (equal ones shared across branches); the branch's patterns start at
// offset in the first round's pattern list.
func (ps *probes) analyze(br *qplan.Branch, offset int) *analysis {
	patterns := br.Patterns
	a := &analysis{vars: joinEntities(patterns), counts: make([]*probe, len(patterns))}
	a.pairs = make([][]pendingCheck, len(a.vars))
	typeOf := typeConstraints(patterns)
	mk := func(v string, outer, inner int) check {
		return check{p: ps.add(makeCheck(v, patterns[outer], patterns[inner], typeOf), offset+outer), outer: outer}
	}
	for i, vr := range a.vars {
		switch {
		case len(vr.predIdx) > 0:
		case len(vr.subjIdx) > 0 && len(vr.objIdx) > 0:
			// Subject and object: for each (object pattern, subject
			// pattern) pair, instances seen as objects must exist locally
			// as subjects (Figure 5).
			for _, oi := range vr.objIdx {
				for _, si := range vr.subjIdx {
					if oi != si {
						a.pairs[i] = append(a.pairs[i], pendingCheck{vr.name, [2]int{oi, si}, []check{mk(vr.name, oi, si)}})
					}
				}
			}
		case len(vr.subjIdx) > 0:
			// Subject only: both set differences must be empty, so check
			// each direction of each pair. (All triples of a subject live
			// at its authoritative endpoint, so a subject-only join cannot
			// straddle endpoints undetected.)
			for _, pr := range pairIndexes(vr.allIdx) {
				a.pairs[i] = append(a.pairs[i], pendingCheck{vr.name, pr, []check{mk(vr.name, pr[0], pr[1]), mk(vr.name, pr[1], pr[0])}})
			}
		}
	}
	for i, tp := range patterns {
		if filters, _ := coveredFilters(tp.Vars(), br.Filters); len(filters) > 0 {
			a.counts[i] = ps.add(makeCount(tp, filters), offset+i)
		}
	}
	return a
}

// shortcut runs lines 1-16 of Algorithm 1 over the branch's sources: the
// variables that are global without a check query, and per variable the
// pairs whose checks must decide.
func (a *analysis) shortcut(sources [][]string) (*GJVResult, []pendingCheck) {
	res := &GJVResult{Global: map[string]bool{}, CausePairs: map[string][][2]int{}}
	var pending []pendingCheck
	for i, vr := range a.vars {
		// A variable used in predicate position that joins with other
		// patterns is conservatively global (sound by Lemma 2; the paper
		// defers variable-predicate joins to the extended version).
		if len(vr.predIdx) > 0 {
			res.Global[vr.name] = true
			continue
		}
		// Lines 8-11: patterns from different sources force a GJV without
		// any check queries.
		pairs := pairIndexes(vr.allIdx)
		for _, pr := range pairs {
			if !sameSources(sources[pr[0]], sources[pr[1]]) {
				res.Global[vr.name] = true
				res.CausePairs[vr.name] = append(res.CausePairs[vr.name], pr)
			}
		}
		switch {
		case res.Global[vr.name]:
		case len(vr.subjIdx) == 0:
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
			pending = append(pending, a.pairs[i]...)
		}
	}
	return res, pending
}

// detectGJVs finishes Algorithm 1 for every branch once the first round
// has answered: line 8's shortcut over the sources, then lines 17-23, the
// checks it leaves, and the filtered COUNTs. An answer counts only from an
// endpoint relevant to the check's outer pattern, or to the counted
// pattern; the first round's riders and the fact cache answer most, and
// the rest, the endpoints the first round did not ask, go in one request
// per endpoint for the whole query, the second round. A check is a
// witness when any relevant endpoint holds one or gave no answer: a local
// verdict from a missing answer would be unsound. A branch with a pattern
// no endpoint holds is not analyzed.
func (e *Engine) detectGJVs(ctx context.Context, facts []branchFacts, prof *Profile) ([]*GJVResult, error) {
	out := make([]*GJVResult, len(facts))
	pending := make([][]pendingCheck, len(facts))
	r := &round{byEP: map[string][]question{}}
	queued := map[answerKey]bool{}
	need := func(p *probe, names []string) {
		for _, name := range names {
			k := answerKey{p.key, name}
			_, known := p.got[name]
			if !known {
				if n, ok := e.facts.answer(k); ok {
					p.set(name, n)
					if p.isCheck() {
						prof.CheckCacheHit++
						e.facts.checkHits.Inc()
					}
					continue
				}
			}
			if p.isCheck() {
				e.facts.checkMisses.Inc()
			}
			if !known && !queued[k] {
				queued[k] = true
				p.formulate()
				r.byEP[name] = append(r.byEP[name], question{p: p})
				p.sent(prof)
			}
		}
	}
	for i, f := range facts {
		if f.empty {
			continue
		}
		out[i], pending[i] = f.lade.shortcut(f.sources)
		for _, pc := range pending[i] {
			for _, c := range pc.checks {
				need(c.p, f.sources[c.outer])
			}
		}
		for k, p := range f.lade.counts {
			if p != nil && !e.opts.CatalogOnly {
				need(p, f.sources[k])
			}
		}
	}
	if len(r.byEP) > 0 {
		t0 := time.Now()
		actx, sp := obs.StartSpan(ctx, "analysis")
		err := e.ask(actx, r)
		sp.End()
		prof.Analysis += time.Since(t0)
		if err != nil {
			return nil, err
		}
	}

	for i, f := range facts {
		if f.empty {
			continue
		}
		for _, pc := range pending[i] {
			if slices.ContainsFunc(pc.checks, func(c check) bool { return c.p.witness(f.sources[c.outer]) }) {
				out[i].Global[pc.varName] = true
				out[i].CausePairs[pc.varName] = append(out[i].CausePairs[pc.varName], pc.pair)
			}
		}
		for k, p := range f.lade.counts {
			if p == nil {
				continue
			}
			// Source selection's counts ignore the filters.
			f.stats.card[k] = map[string]float64{}
			for _, name := range f.sources[k] {
				if n, ok := p.got[name]; ok {
					f.stats.card[k][name] = n
				}
			}
		}
	}
	return out, nil
}

// makeCheck formulates the Figure 5 check query testing whether some
// binding of v in tpOuter lacks a local counterpart in tpInner.
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
// narrowing. It names no endpoint: an answer is a fact about one endpoint,
// and a verdict over any source set is the OR of those facts.
func makeCheck(v string, tpOuter, tpInner sparql.TriplePattern, typeOf map[string]sparql.TriplePattern) *probe {
	p := &probe{key: "check|" + sparql.PatternKey(map[string]string{v: "?JV"}, tpOuter, tpInner), v: v, outer: tpOuter, inner: tpInner}
	if tt, ok := typeOf[v]; ok && tpOuter.S.Var == v {
		p.narrow = &tt
		p.key += "|type=" + tt.O.String()
	}
	return p
}

// makeCount formulates the COUNT of tp under the filters it covers, keyed
// by its canonical text, so that any spelling of the same count shares one
// fact per endpoint.
func makeCount(tp sparql.TriplePattern, filters []sparql.Expr) *probe {
	where := []sparql.Element{tp}
	for _, f := range filters {
		where = append(where, sparql.Filter{Expr: f})
	}
	return &probe{
		key:   "count|" + sema.CanonicalText(sparql.NewCount("n", where...)),
		where: &sparql.GroupPattern{Elements: where},
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
