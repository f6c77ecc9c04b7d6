package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
)

// facts is the engine's one cache of planning facts, each a fact about an
// endpoint's data: per normalized pattern, what the first planning round
// learned at every endpoint, and per check key, the second round's LADE
// verdict. The paper caches the checks that determine patterns which
// *cannot* be executed locally; caching both outcomes is strictly more
// effective and remains sound for a static federation. A fact derived
// from a failure is never stored, because an outage is not data: the next
// query asks again exactly what failed.
type facts struct {
	mu       sync.Mutex
	patterns map[string][]fact // normalized pattern -> per endpoint, federation order
	checks   map[string]bool   // check key -> some endpoint holds a witness (the variable is global)

	sourceHits, sourceMisses *obs.Counter
	checkHits, checkMisses   *obs.Counter
}

// fact is what the first round knows about one pattern at one endpoint.
type fact struct {
	known    bool    // answered or decided by the catalog; false asks again
	relevant bool    // the endpoint may hold matches
	counted  bool    // card holds a probed count
	card     float64 // the pattern's solutions at the endpoint
}

func newFacts() *facts {
	reg := obs.Default()
	return &facts{
		patterns:     map[string][]fact{},
		checks:       map[string]bool{},
		sourceHits:   reg.Counter(obs.MetricSourceCacheHits, "source-selection cache hits"),
		sourceMisses: reg.Counter(obs.MetricSourceCacheMisses, "source-selection cache misses"),
		checkHits:    reg.Counter(obs.MetricCheckCacheHits, "LADE check-query cache hits"),
		checkMisses:  reg.Counter(obs.MetricCheckCacheMisses, "LADE check-query cache misses"),
	}
}

// clear drops every fact.
func (c *facts) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.patterns = map[string][]fact{}
	c.checks = map[string]bool{}
}

// pattern returns a copy of the pattern's facts at n endpoints and whether
// all of them are known, which is a cache hit.
func (c *facts) pattern(key string, n int) ([]fact, bool) {
	c.mu.Lock()
	fs := slices.Clone(c.patterns[key])
	c.mu.Unlock()
	hit := fs != nil && !slices.ContainsFunc(fs, func(f fact) bool { return !f.known })
	if hit {
		c.sourceHits.Inc()
	} else {
		c.sourceMisses.Inc()
	}
	if fs == nil {
		fs = make([]fact, n)
	}
	return fs, hit
}

// putPattern stores the pattern's facts; the unknown ones will be asked
// again.
func (c *facts) putPattern(key string, fs []fact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.patterns[key] = fs
}

// check returns the cached verdict of a check query.
func (c *facts) check(key string) (failed, ok bool) {
	c.mu.Lock()
	failed, ok = c.checks[key]
	c.mu.Unlock()
	if ok {
		c.checkHits.Inc()
	} else {
		c.checkMisses.Inc()
	}
	return failed, ok
}

// putCheck stores the verdict of a check query that every endpoint
// answered.
func (c *facts) putCheck(key string, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks[key] = failed
}

// selection is the first round's work on one distinct normalized pattern.
type selection struct {
	key       string
	tp        sparql.TriplePattern
	sp        *obs.Span
	counted   bool               // its first occurrence, hence every one, wants counts
	facts     []fact             // per endpoint
	probed    []int              // endpoints neither the cache nor the catalog decided
	retry     bool               // the cache knew some endpoints, so a failed retry degrades
	errs      []error            // per probed endpoint, the failed probe
	sources   []string           // the relevant endpoints
	card      map[string]float64 // counted: solutions by source, where known
	cataloged int                // how many of card the catalog answered
}

// firstRound selects the sources of every pattern, in federation order,
// and for the first counted patterns their solution counts there; patterns
// equal up to variable names are selected once, and the result holds one
// selection per pattern. The fact cache, then the catalog decide first.
// Each endpoint left with questions gets one request of COUNT cells,
// SELECT ?lusail_a0 … WHERE { { SELECT (COUNT(*) AS ?lusail_a0) WHERE {
// tp0 } } … }. A cell goes wherever a pattern's relevance is undecided,
// and wherever a counted pattern is relevant but its count is neither
// cached nor in the catalog. A count above zero, or a cell that is not a
// valid count, makes the endpoint relevant. A failed probe keeps its
// endpoint relevant, count unknown, with a warning (see fail); the round
// fails only when the context ended or every probe of some pattern failed
// and the cache knew nothing of it.
func (e *Engine) firstRound(ctx context.Context, tps []sparql.TriplePattern, counted int, prof *Profile) ([]*selection, error) {
	eps := e.fed.Endpoints()
	out := make([]*selection, len(tps))
	byKey := map[string]*selection{}
	var order []*selection
	for i, tp := range tps {
		key := sparql.PatternKey(nil, tp)
		if out[i] = byKey[key]; out[i] != nil {
			// A repeat within the call is neither a cache hit nor a miss.
			continue
		}
		sel := &selection{key: key, tp: tp, sp: obs.FromContext(ctx).StartChild("select-sources"),
			counted: i < counted, card: map[string]float64{}}
		out[i], byKey[key] = sel, sel
		order = append(order, sel)
		sel.sp.SetAttr("pattern", key)
		var hit bool
		sel.facts, hit = e.facts.pattern(key, len(eps))
		if hit {
			sel.sp.SetAttr("cache", "hit")
			continue
		}
		sel.sp.SetAttr("cache", "miss")
		sel.retry = slices.ContainsFunc(sel.facts, func(f fact) bool { return f.known })
		e.decide(sel)
	}

	r := &round{byEP: map[string][]question{}}
	cells := 0
	for _, sel := range order {
		count := []sparql.Element{sel.tp} // shared by the pattern's questions
		for j, f := range sel.facts {
			if sel.counted && f.relevant && e.cat != nil {
				if n, ok := e.cat.Cardinality(sel.tp, eps[j].Name()); ok {
					sel.card[eps[j].Name()] = n
					sel.cataloged++
					continue
				}
			}
			if slices.Contains(sel.probed, j) || sel.counted && f.relevant && !f.counted && !e.opts.CatalogOnly {
				name := eps[j].Name()
				r.byEP[name] = append(r.byEP[name], question{sel: sel, ep: j, count: count})
				cells++
			}
		}
	}
	if e.cat != nil && cells > 0 {
		e.catCardFallbacks.Add(int64(cells))
	}

	err := e.ask(ctx, r)
	for _, sel := range order {
		if err == nil {
			err = resilience.SelectionFailed(sel.errs, sel.retry)
		}
		for j, f := range sel.facts {
			if name := eps[j].Name(); f.relevant {
				sel.sources = append(sel.sources, name)
				if _, ok := sel.card[name]; !ok && f.counted {
					sel.card[name] = f.card
				}
			}
		}
		if err == nil {
			e.facts.putPattern(sel.key, sel.facts)
		}
		sel.sp.SetAttr("sources", strings.Join(sel.sources, ","))
		sel.sp.End()
	}
	if err != nil {
		return nil, err
	}
	prof.CountProbes += cells
	return out, nil
}

// decide consults the catalog for the endpoints the cache does not know:
// it settles those the catalog can and lists the rest to probe.
func (e *Engine) decide(sel *selection) {
	undecided := 0
	for j, ep := range e.fed.Endpoints() {
		if sel.facts[j].known {
			continue
		}
		undecided++
		d := catalog.TierUnknown
		if e.cat != nil {
			d = e.cat.Decide(sel.tp, ep.Name())
		}
		sel.facts[j] = fact{known: d != catalog.TierUnknown, relevant: d == catalog.TierRelevant}
		if d == catalog.TierUnknown {
			sel.probed = append(sel.probed, j)
		}
	}
	tier := "ask"
	switch {
	case e.cat == nil:
	case len(sel.probed) == 0:
		e.catalogHits.Inc()
		tier = "catalog"
	case len(sel.probed) == undecided:
		e.catalogFallbacks.Inc()
	default:
		e.catalogPartial.Inc()
		tier = "catalog+ask"
	}
	if len(sel.probed) > 0 && e.opts.CatalogOnly {
		// Probe-free planning: undecided endpoints are conservatively kept
		// as candidate sources. Over-approximate but sound — an irrelevant
		// endpoint contributes empty subquery results, never wrong ones.
		for _, j := range sel.probed {
			sel.facts[j] = fact{known: true, relevant: true}
		}
		sel.probed = nil
		tier = "catalog-only"
	}
	sel.errs = make([]error, len(sel.probed))
	sel.sp.SetAttr("tier", tier)
}

// fail records that endpoint name gave no answer to q and decides what
// that means, returning the error that ends the round, if any. The first
// round applies source selection's policy (resilience.ProbeFailed): the
// endpoint stays relevant for this query and its fact unknown. The second
// ends under FailFast and warns under Degrade, where a check without an
// answer makes its variable global. Neither outcome is cached.
func (e *Engine) fail(ctx context.Context, r *round, q question, name string, err error) error {
	if q.sel == nil {
		r.record(q, name, rdf.Term{})
		if !e.degrade(ctx, q.phase(), name, err) {
			return err
		}
		return nil
	}
	err = resilience.ProbeFailed(ctx, name, err)
	r.mu.Lock()
	defer r.mu.Unlock()
	q.sel.facts[q.ep] = fact{relevant: true}
	if k := slices.Index(q.sel.probed, q.ep); k >= 0 {
		q.sel.errs[k] = err
	}
	return nil
}

// question is one cell of a planning request: in the first round, the
// COUNT of a pattern at endpoint ep for source selection; in the second, a
// check query, or the COUNT of pattern under the branch filters it covers.
type question struct {
	sel     *selection // first round: the pattern selected
	ep      int        // first round: the endpoint's position in the federation
	check   *checkQuery
	pattern int
	count   []sparql.Element // a COUNT's WHERE clause
}

func (q question) phase() client.Phase {
	switch {
	case q.sel != nil:
		return client.PhaseSourceSelection
	case q.check != nil:
		return client.PhaseCheck
	}
	return client.PhaseCount
}

// cell is the question as a batch cell that binds its answer to ?v.
func (q question) cell(v string) sparql.Element {
	if q.check != nil {
		return sparql.Bind{Var: v, Expr: sparql.ExprExists{Group: q.check.where}}
	}
	return sparql.SubSelect{Query: sparql.NewCount(v, q.count...)}
}

// prefix returns the variable prefix of the question's cells: lusail_a in
// the first round, lusail_k in the second.
func (q question) prefix() string {
	if q.sel != nil {
		return client.SourceVar
	}
	return "lusail_k"
}

// query is the question as a request of its own, a COUNT binding its
// answer to the first cell variable.
func (q question) query() string {
	if q.check != nil {
		return q.check.text
	}
	return sparql.NewCount(q.prefix()+"0", q.count...).String()
}

// answer reads the response to query() as the batch cell would have been.
func (q question) answer(res *sparql.Results) rdf.Term {
	if q.check != nil {
		return rdf.NewBoolean(len(res.Rows) > 0)
	}
	if _, ok := client.ScalarCount(res); ok {
		return res.Rows[0][0]
	}
	return rdf.Term{}
}

// round is one planning round: each endpoint's questions, and the answers
// that are not a first-round selection's own.
type round struct {
	byEP map[string][]question // by endpoint name

	mu     sync.Mutex
	failed map[string]bool // check key -> some endpoint holds a witness
	lost   map[string]bool // check key -> some endpoint gave no answer
	stats  *queryStats
}

// record files endpoint name's answer to q; a zero term is no answer,
// which leaves a count unknown and a check unanswered.
func (r *round) record(q question, name string, t rdf.Term) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case q.sel != nil:
		// A cell that is not a valid count is no evidence of absence.
		n, ok := client.CountValue(t)
		f := &q.sel.facts[q.ep]
		*f = fact{known: true, relevant: f.relevant || !ok || n > 0, counted: ok, card: n}
	case q.check != nil:
		witness, ok := t.Bool()
		r.failed[q.check.key] = r.failed[q.check.key] || witness
		r.lost[q.check.key] = r.lost[q.check.key] || !ok
	default:
		if n, ok := client.CountValue(t); ok {
			r.stats.card[q.pattern][name] = n
		}
	}
}

// ask asks each endpoint, in federation order, all of its questions in one
// request, or its one question as a plain COUNT or check query. An
// endpoint that fails the batch is asked again one question per request,
// and a question that fails that too, or whose endpoint the breaker
// rejects, goes to fail. A batch's own failure is neither warned nor
// cached.
func (e *Engine) ask(ctx context.Context, r *round) error {
	names := slices.DeleteFunc(e.fed.Names(), func(n string) bool { return len(r.byEP[n]) == 0 })
	var rejected []error // called from the submitting goroutine only
	reject := func(k int, err error) {
		for _, q := range r.byEP[names[k]] {
			if err := e.fail(ctx, r, q, names[k], err); err != nil {
				rejected = append(rejected, err)
				return
			}
		}
	}
	err := e.pool.ForEachGated(ctx, names, e.gate(), reject, func(k int) error {
		name, list := names[k], r.byEP[names[k]]
		if len(list) > 1 && e.askBatch(ctx, r, name, list) {
			return nil
		}
		// The context ending skips unstarted questions; their endpoints
		// have no answer, so the error ends the round.
		return e.pool.ForEach(ctx, len(list), func(i int) error {
			return e.askOne(ctx, r, name, list[i])
		})
	})
	return errors.Join(append(rejected, err)...)
}

// askBatch asks endpoint name several questions in one request and reports
// whether it answered.
func (e *Engine) askBatch(ctx context.Context, r *round, name string, list []question) bool {
	span := "check-query"
	if list[0].sel != nil {
		span = "count-probe"
	}
	sp := obs.FromContext(ctx).StartChild(span)
	defer sp.End()
	sp.SetAttr("endpoint", name)
	sp.SetAttr("cells", len(list))
	cells, err := client.Batch(len(list), list[0].prefix(), func(k int, v string) sparql.Element {
		return list[k].cell(v)
	}, func(q string) (*sparql.Results, error) {
		return e.probeEndpoint(ctx, list[0].phase(), name, q)
	})
	if err != nil {
		sp.SetAttr("error", err.Error())
		return false
	}
	for k, q := range list {
		r.record(q, name, cells[k])
	}
	return true
}

// askOne asks endpoint name one question in a request of its own.
func (e *Engine) askOne(ctx context.Context, r *round, name string, q question) error {
	parent, kind := obs.FromContext(ctx), "count-probe"
	if q.sel != nil {
		parent = q.sel.sp
	}
	if q.check != nil {
		kind = "check-query"
	}
	sp := parent.StartChild(kind)
	defer sp.End()
	sp.SetAttr("endpoint", name)
	res, err := e.probeEndpoint(ctx, q.phase(), name, q.query())
	if err != nil {
		sp.SetAttr("error", err.Error())
		if err := e.fail(ctx, r, q, name, err); err != nil {
			return err
		}
		sp.SetAttr("degraded", true)
		return nil
	}
	r.record(q, name, q.answer(res))
	return nil
}

// sameSources reports whether two source lists, each naming an endpoint at
// most once, name the same endpoints in any order.
func sameSources(a, b []string) bool {
	return len(a) == len(b) && !slices.ContainsFunc(a, func(n string) bool { return !slices.Contains(b, n) })
}

// intersectSources returns the names present in both lists, preserving the
// order of a.
func intersectSources(a, b []string) []string {
	var out []string
	for _, n := range a {
		if slices.Contains(b, n) {
			out = append(out, n)
		}
	}
	return out
}

// sourcesKey returns a canonical string for a set of sources.
func sourcesKey(names []string) string {
	s := slices.Clone(names)
	slices.Sort(s)
	return strings.Join(s, ",")
}
