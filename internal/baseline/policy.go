package baseline

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/erh"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
)

// policy is everything in which the comparator systems differ.
type policy struct {
	// sources selects, for each pattern of a conjunctive block, the
	// endpoints that may answer it.
	sources func(ctx context.Context, patterns []sparql.TriplePattern) ([][]string, error)
	// prune, when set, narrows the per-pattern source lists of a
	// conjunctive block against each other (join-aware selection).
	prune func(patterns []sparql.TriplePattern, sources [][]string) [][]string
	// exclusive forms exclusive groups and pushes filters into units;
	// without it every unit is one bare pattern.
	exclusive bool
	// cost ranks a unit given the variables bound so far; the cheapest
	// remaining unit runs next.
	cost func(u *core.Subquery, bound map[string]bool) float64
	// bind chooses a bound join over fetching the unit whole and hash
	// joining, given the size of the relation it joins with; optional is
	// set for the units of an OPTIONAL block.
	bind func(rows int, optional bool) bool
	// block is the number of bindings per VALUES block of a bound join.
	block int
	// limitStop ends the last bound join once LIMIT rows are complete.
	limitStop bool
}

const (
	fedxBlock       = 15  // FedX's default bound-join block size
	splendidBlock   = 20  // SPLENDID's bind-join block size
	splendidBindMax = 100 // SPLENDID bind-joins at most this many rows
)

// NewFedX returns the index-free FedX baseline: ASK source selection,
// exclusive groups, variable-counting order, bound joins throughout.
func NewFedX(fed *federation.Federation) *Engine {
	pool := erh.New(0)
	return newEngine(fed, pool, fedxPolicy((&askSelection{fed: fed, pool: pool}).block))
}

// NewHiBISCuS returns HiBISCuS: the FedX executor with source selection
// from the catalog's per-predicate authority sketches, pruned join-aware.
// The catalog is the index-based systems' offline preprocessing; build it
// with catalog.Build first.
func NewHiBISCuS(fed *federation.Federation, cat *catalog.Store) *Engine {
	pool := erh.New(0)
	idx := authorityIndex{fed: fed, cat: cat}
	pol := fedxPolicy(eachPattern(pool, idx.sources))
	pol.prune = idx.prune
	return newEngine(fed, pool, pol)
}

// NewSPLENDID returns SPLENDID: sources and join order from the catalog's
// VoID-style counts (with ASK confirmation where counts cannot decide), one
// pattern per unit, and a per-join choice between shipping bindings and
// materializing both sides. Its habit of materializing large relations is
// what makes it time out on the paper's complex and large queries.
func NewSPLENDID(fed *federation.Federation, cat *catalog.Store) *Engine {
	pool := erh.New(0)
	idx := voidIndex{fed: fed, cat: cat, pool: pool}
	return newEngine(fed, pool, policy{
		sources: eachPattern(pool, idx.sources),
		cost:    idx.cost,
		bind:    func(rows int, optional bool) bool { return !optional && rows <= splendidBindMax },
		block:   splendidBlock,
	})
}

func fedxPolicy(sources func(context.Context, []sparql.TriplePattern) ([][]string, error)) policy {
	return policy{
		sources:   sources,
		exclusive: true,
		cost:      variableCount,
		bind:      func(int, bool) bool { return true },
		block:     fedxBlock,
		limitStop: true,
	}
}

// eachPattern lifts a selection for one pattern to a block's, selecting
// for its patterns concurrently.
func eachPattern(pool *erh.Pool, sources func(context.Context, sparql.TriplePattern) ([]string, error)) func(context.Context, []sparql.TriplePattern) ([][]string, error) {
	return func(ctx context.Context, patterns []sparql.TriplePattern) ([][]string, error) {
		out := make([][]string, len(patterns))
		err := pool.ForEach(ctx, len(patterns), func(i int) error {
			s, err := sources(ctx, patterns[i])
			out[i] = s
			return err
		})
		return out, err
	}
}

// askSelection is FedX's source selection: one ASK per pattern and
// endpoint, the answers cached by normalized pattern. A failed ASK follows
// Lusail's policy (resilience.ProbeFailed and SelectionFailed): its
// endpoint is a source for this query, with a warning, and is asked again
// next time; selection fails when the context ended or every ASK of an
// uncached pattern failed.
type askSelection struct {
	fed   *federation.Federation
	pool  *erh.Pool
	cache sync.Map // normalized pattern "@" endpoint -> relevant
}

// block selects for a conjunctive block's patterns in FedX's order: it
// looks every pattern up in the cache before it sends any ASK, so a
// pattern the block holds twice is asked twice, whichever ASK ends first.
func (x *askSelection) block(ctx context.Context, patterns []sparql.TriplePattern) ([][]string, error) {
	unknown := make([][]string, len(patterns))
	for i, tp := range patterns {
		unknown[i] = x.unknown(tp)
	}
	out := make([][]string, len(patterns))
	err := x.pool.ForEach(ctx, len(patterns), func(i int) error {
		s, err := x.ask(ctx, patterns[i], unknown[i])
		out[i] = s
		return err
	})
	return out, err
}

// unknown returns the endpoints whose answer for the pattern is not cached.
func (x *askSelection) unknown(tp sparql.TriplePattern) []string {
	key := sparql.PatternKey(nil, tp) + "@"
	var out []string
	for _, name := range x.fed.Names() {
		if _, ok := x.cache.Load(key + name); !ok {
			out = append(out, name)
		}
	}
	return out
}

// ask sends the pattern's ASK to the unknown endpoints, caches the answers
// and returns the endpoints that may hold matches of the pattern, in
// federation order.
func (x *askSelection) ask(ctx context.Context, tp sparql.TriplePattern, unknown []string) ([]string, error) {
	key := sparql.PatternKey(nil, tp) + "@"
	answers, errs, err := askAll(ctx, x.pool, x.fed, unknown, tp)
	if err != nil {
		return nil, err
	}
	for i, name := range unknown {
		if errs[i] == nil {
			x.cache.Store(key+name, answers[i])
		} else {
			errs[i] = resilience.ProbeFailed(ctx, name, errs[i])
		}
	}
	if err := resilience.SelectionFailed(errs, len(unknown) < x.fed.Size()); err != nil {
		return nil, err
	}
	var out []string
	for _, name := range x.fed.Names() {
		if relevant, ok := x.cache.Load(key + name); !ok || relevant.(bool) { // !ok: its ASK failed
			out = append(out, name)
		}
	}
	return out, nil
}

// askAll sends the pattern's ASK to the named endpoints at once and
// returns each one's answer or error; err reports a context that ended
// before every ASK was sent.
func askAll(ctx context.Context, pool *erh.Pool, fed *federation.Federation, names []string, tp sparql.TriplePattern) (answers []bool, errs []error, err error) {
	q := sparql.NewAsk()
	q.Where.Elements = append(q.Where.Elements, tp)
	text := q.String()
	answers, errs = make([]bool, len(names)), make([]error, len(names))
	err = pool.ForEach(ctx, len(names), func(i int) error {
		answers[i], errs[i] = client.Ask(ctx, fed.Get(names[i]), text)
		return nil
	})
	return answers, errs, err
}

// variableCount is FedX's variable-counting heuristic: prefer the unit with
// the fewest unbound variables; constants and exclusive groups break ties.
// It serves exclusive policies only, where a unit with one source is an
// exclusive group.
func variableCount(u *core.Subquery, bound map[string]bool) float64 {
	score := 0
	for _, v := range u.Vars() {
		if !bound[v] {
			score += 100
		}
	}
	for _, tp := range u.Patterns {
		for _, pt := range []sparql.PatternTerm{tp.S, tp.P, tp.O} {
			if !pt.IsVar() {
				score -= 10
			}
		}
	}
	if len(u.Sources) == 1 {
		score -= 50
	}
	return float64(score)
}

// authorityIndex is HiBISCuS's view of the catalog: for every endpoint and
// predicate, the URI authorities seen in subject and object position.
type authorityIndex struct {
	fed *federation.Federation
	cat *catalog.Store
}

// predicates returns the statistics of the predicates the pattern can
// match at the endpoint.
func (x authorityIndex) predicates(ep string, tp sparql.TriplePattern) []*catalog.PredicateStat {
	sum, ok := x.cat.Summary(ep)
	if !ok {
		return nil
	}
	if !tp.P.IsVar() {
		if ps := sum.Predicates[tp.P.Term.Value]; ps != nil {
			return []*catalog.PredicateStat{ps}
		}
		return nil
	}
	out := make([]*catalog.PredicateStat, 0, len(sum.Predicates))
	for _, ps := range sum.Predicates {
		out = append(out, ps)
	}
	return out
}

// sources keeps the endpoints that have the predicate and, for a constant
// subject or object IRI, its authority in that position.
func (x authorityIndex) sources(_ context.Context, tp sparql.TriplePattern) ([]string, error) {
	var out []string
	for _, ep := range x.fed.Names() {
		for _, ps := range x.predicates(ep, tp) {
			if !tp.S.IsVar() && tp.S.Term.IsIRI() && !slices.Contains(ps.SubjAuthorities, catalog.Authority(tp.S.Term.Value)) {
				continue
			}
			if !tp.O.IsVar() && tp.O.Term.IsIRI() && !slices.Contains(ps.ObjAuthorities, catalog.Authority(tp.O.Term.Value)) {
				continue
			}
			out = append(out, ep)
			break
		}
	}
	return out, nil
}

// prune is HiBISCuS's hypergraph join-aware pruning: an endpoint stays
// relevant for a pattern only if, for every variable the pattern shares
// with another pattern, the authorities of the variable's two positions can
// intersect. It runs to fixpoint.
func (x authorityIndex) prune(patterns []sparql.TriplePattern, sources [][]string) [][]string {
	for changed := true; changed; {
		changed = false
		for i, tpi := range patterns {
			for _, v := range tpi.Vars() {
				for j, tpj := range patterns {
					if i == j || !tpj.HasVar(v) {
						continue
					}
					other := map[string]bool{}
					for _, ep := range sources[j] {
						for _, a := range x.varAuthorities(ep, tpj, v) {
							other[a] = true
						}
					}
					if len(other) == 0 {
						continue // literals or unknown: cannot prune
					}
					var kept []string
					for _, ep := range sources[i] {
						mine := x.varAuthorities(ep, tpi, v)
						keep := len(mine) == 0
						for _, a := range mine {
							keep = keep || other[a]
						}
						if keep {
							kept = append(kept, ep)
						}
					}
					if len(kept) != len(sources[i]) {
						sources[i] = kept
						changed = true
					}
				}
			}
		}
	}
	return sources
}

// varAuthorities returns the authorities of v's position in tp at ep.
func (x authorityIndex) varAuthorities(ep string, tp sparql.TriplePattern, v string) []string {
	var out []string
	for _, ps := range x.predicates(ep, tp) {
		switch v {
		case tp.S.Var:
			out = append(out, ps.SubjAuthorities...)
		case tp.O.Var:
			out = append(out, ps.ObjAuthorities...)
		}
	}
	return out
}

// voidIndex is SPLENDID's view of the catalog: per endpoint, the triple
// count and the per-predicate and per-class counts of a VoID description.
type voidIndex struct {
	fed  *federation.Federation
	cat  *catalog.Store
	pool *erh.Pool
}

// typesClass reports whether the pattern is (?x rdf:type <Class>), which
// the per-class counts describe.
func typesClass(tp sparql.TriplePattern) bool {
	return !tp.P.IsVar() && tp.P.Term.Value == rdf.RDFType && !tp.O.IsVar() && tp.O.Term.IsIRI()
}

// count returns the VoID count bounding the pattern's matches at ep.
func (x voidIndex) count(ep string, tp sparql.TriplePattern) int64 {
	sum, ok := x.cat.Summary(ep)
	switch {
	case !ok:
		return 0
	case tp.P.IsVar():
		return sum.Triples
	case typesClass(tp):
		return sum.Classes[tp.O.Term.Value]
	}
	if ps := sum.Predicates[tp.P.Term.Value]; ps != nil {
		return ps.Triples
	}
	return 0
}

// sources selects from the counts and confirms with ASK probes when a
// constant subject or object makes them inconclusive (VoID has no
// per-instance information).
func (x voidIndex) sources(ctx context.Context, tp sparql.TriplePattern) ([]string, error) {
	var candidates []string
	for _, ep := range x.fed.Names() {
		if x.count(ep, tp) > 0 {
			candidates = append(candidates, ep)
		}
	}
	if tp.S.IsVar() && (tp.O.IsVar() || !tp.P.IsVar()) {
		return candidates, nil
	}
	confirmed, errs, err := askAll(ctx, x.pool, x.fed, candidates, tp)
	if err := errors.Join(append(errs, err)...); err != nil {
		return nil, fmt.Errorf("baseline: ASK confirmation: %w", err)
	}
	var out []string
	for i, ok := range confirmed {
		if ok {
			out = append(out, candidates[i])
		}
	}
	return out, nil
}

// cost orders units by the VoID cardinality estimate of their pattern
// (SPLENDID's units hold one each), pushing units that share no bound
// variable — cross products — to the back.
func (x voidIndex) cost(u *core.Subquery, bound map[string]bool) float64 {
	tp := u.Patterns[0]
	est := 0.0
	for _, ep := range u.Sources {
		c := float64(x.count(ep, tp))
		if !tp.P.IsVar() && !typesClass(tp) && (!tp.S.IsVar() || !tp.O.IsVar()) {
			c /= 10 // constants are selective; VoID has no finer data
		}
		est += c
	}
	if len(bound) > 0 {
		connected := false
		for _, v := range tp.Vars() {
			connected = connected || bound[v]
		}
		if !connected {
			est *= 1e6
		}
	}
	return est
}
