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
// learned at every endpoint, and per probe (a LADE check or a filtered
// COUNT) and endpoint, its answer there. The paper caches the checks that
// determine patterns which *cannot* be executed locally; caching both
// outcomes is strictly more effective and remains sound for a static
// federation. A fact derived from a failure is never stored, because an
// outage is not data: the next query asks again exactly what failed.
type facts struct {
	mu       sync.Mutex
	patterns map[string][]fact     // normalized pattern -> per endpoint, federation order
	answers  map[answerKey]float64 // probe at endpoint -> its answer

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
		answers:      map[answerKey]float64{},
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
	c.answers = map[answerKey]float64{}
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

// answerKey names a probe's answer at one endpoint.
type answerKey struct{ probe, ep string }

// answer returns a probe's cached answer at an endpoint.
func (c *facts) answer(k answerKey) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.answers[k]
	return n, ok
}

// putAnswer stores a probe's answer at an endpoint.
func (c *facts) putAnswer(k answerKey, n float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.answers[k] = n
}

// probe is a planning question about one endpoint's data that relevance
// alone does not answer: a LADE check query, answered 1 when the endpoint
// holds a binding of v in the outer pattern with no local counterpart in
// the inner one and 0 when it holds none, or the COUNT of a pattern under
// the branch filters it covers. Both come from the query text alone, so
// they can ride in the first round's batches. An endpoint with no match of
// the outer (or counted) pattern answers 0 to either, so the answers that
// count are those of the endpoints relevant to that pattern.
type probe struct {
	key     string
	pattern int // the first round's index of the outer or counted pattern

	v            string // a check's variable; empty for a COUNT
	outer, inner sparql.TriplePattern
	narrow       *sparql.TriplePattern // v's rdf:type pattern, when it narrows the check

	where *sparql.GroupPattern // the check's WHERE clause once formulated; the COUNT's
	got   map[string]float64   // this query's answers by endpoint
}

// probes is a query's probes, one per key.
type probes struct {
	byKey map[string]*probe
	list  []*probe
}

// add returns the query's probe with p's key, adding p at the first
// round's pattern index when it is new.
func (ps *probes) add(p *probe, pattern int) *probe {
	if have := ps.byKey[p.key]; have != nil {
		return have
	}
	if ps.byKey == nil {
		ps.byKey = map[string]*probe{}
	}
	p.pattern = pattern
	ps.byKey[p.key] = p
	ps.list = append(ps.list, p)
	return p
}

func (p *probe) isCheck() bool { return p.v != "" }

// formulate builds the check's WHERE clause, once.
func (p *probe) formulate() {
	if p.where != nil {
		return
	}
	p.where = &sparql.GroupPattern{}
	if p.narrow != nil {
		p.where.Elements = append(p.where.Elements, *p.narrow)
	}
	inner := sparql.NewSelect(p.v)
	inner.Where.Elements = append(inner.Where.Elements, renameExcept(p.inner, p.v))
	p.where.Elements = append(p.where.Elements, p.outer, sparql.Filter{
		Expr: sparql.ExprExists{Not: true, Group: &sparql.GroupPattern{
			Elements: []sparql.Element{sparql.SubSelect{Query: inner}},
		}},
	})
}

// text is the probe as a request of its own binding its answer to v: the
// check's SELECT ?v … LIMIT 1, or the COUNT.
func (p *probe) text(v string) string {
	if !p.isCheck() {
		return sparql.NewCount(v, p.where.Elements...).String()
	}
	q := sparql.NewSelect(p.v)
	q.Where, q.Limit = p.where, 1
	return q.String()
}

// sent counts a cell of the probe sent to an endpoint.
func (p *probe) sent(prof *Profile) {
	if p.isCheck() {
		prof.ChecksIssued++
	} else {
		prof.CountProbes++
	}
}

// set records the probe's answer at an endpoint.
func (p *probe) set(name string, n float64) {
	if p.got == nil {
		p.got = map[string]float64{}
	}
	p.got[name] = n
}

// witness reports whether a check finds a witness at one of the endpoints,
// or lacks an endpoint's answer, which must not pass for a local verdict.
func (p *probe) witness(names []string) bool {
	return slices.ContainsFunc(names, func(name string) bool {
		n, ok := p.got[name]
		return !ok || n > 0
	})
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
//
// The riders, the query's checks and filtered COUNTs, join the request of
// every endpoint the round asks anyway, unless the cache holds the
// endpoint's answer or the endpoint cannot match the probe's pattern.
// They are optional: a batch that fails drops them, and the second round
// asks again those a plan needs.
func (e *Engine) firstRound(ctx context.Context, tps []sparql.TriplePattern, counted int, riders []*probe, prof *Profile) ([]*selection, error) {
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
	for j, ep := range eps {
		name := ep.Name()
		if len(r.byEP[name]) == 0 {
			continue
		}
		for _, p := range riders {
			if f := out[p.pattern].facts[j]; f.known && !f.relevant {
				continue
			}
			if _, ok := e.facts.answer(answerKey{p.key, name}); ok {
				continue
			}
			p.formulate()
			r.byEP[name] = append(r.byEP[name], question{p: p})
			p.sent(prof)
		}
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
// endpoint stays relevant for this query and its fact unknown. A probe's
// failure ends the round under FailFast and warns under Degrade, where a
// check without an answer makes its variable global. Neither outcome is
// cached.
func (e *Engine) fail(ctx context.Context, r *round, q question, name string, err error) error {
	if q.sel == nil {
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
// COUNT of a pattern at endpoint ep for source selection; otherwise, or
// riding in a first-round batch, a probe.
type question struct {
	sel   *selection       // first round: the pattern selected
	ep    int              // first round: the endpoint's position in the federation
	count []sparql.Element // first round: the COUNT's WHERE clause
	p     *probe
}

func (q question) phase() client.Phase {
	switch {
	case q.sel != nil:
		return client.PhaseSourceSelection
	case q.p.isCheck():
		return client.PhaseCheck
	}
	return client.PhaseCount
}

// cell is the question as a batch cell that binds its answer to ?v.
func (q question) cell(v string) sparql.Element {
	switch {
	case q.sel != nil:
		return sparql.SubSelect{Query: sparql.NewCount(v, q.count...)}
	case q.p.isCheck():
		return sparql.Bind{Var: v, Expr: sparql.ExprExists{Group: q.p.where}}
	}
	return sparql.SubSelect{Query: sparql.NewCount(v, q.p.where.Elements...)}
}

// prefix returns the variable prefix of the question's cells: lusail_a in
// the first round, lusail_k in the second.
func (q question) prefix() string {
	if q.sel != nil {
		return client.SourceVar
	}
	return "lusail_k"
}

// query is the question as a request of its own, binding its answer to
// the first cell variable.
func (q question) query() string {
	if q.sel != nil {
		return sparql.NewCount(q.prefix()+"0", q.count...).String()
	}
	return q.p.text(q.prefix() + "0")
}

// answer reads the response to query() as the batch cell would have been.
func (q question) answer(res *sparql.Results) rdf.Term {
	if q.p != nil && q.p.isCheck() {
		return rdf.NewBoolean(len(res.Rows) > 0)
	}
	if _, ok := client.ScalarCount(res); ok {
		return res.Rows[0][0]
	}
	return rdf.Term{}
}

// round is one planning round: each endpoint's questions.
type round struct {
	byEP map[string][]question // by endpoint name
	mu   sync.Mutex            // guards what record and fail write
}

// own returns the questions of an endpoint's list that a failed batch asks
// again one per request: in the first round the selections' own, since
// the probes riding behind them are optional.
func own(list []question) []question {
	if i := slices.IndexFunc(list, func(q question) bool { return q.sel == nil }); i > 0 {
		return list[:i]
	}
	return list
}

// record files endpoint name's answer to q; a zero term is no answer,
// which leaves a count unknown and a check unanswered. A probe's answer is
// also a fact for the cache.
func (e *Engine) record(r *round, q question, name string, t rdf.Term) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if q.sel != nil {
		// A cell that is not a valid count is no evidence of absence.
		n, ok := client.CountValue(t)
		f := &q.sel.facts[q.ep]
		*f = fact{known: true, relevant: f.relevant || !ok || n > 0, counted: ok, card: n}
		return
	}
	var n float64
	var ok bool
	if q.p.isCheck() {
		var witness bool
		if witness, ok = t.Bool(); witness {
			n = 1
		}
	} else {
		n, ok = client.CountValue(t)
	}
	if ok {
		q.p.set(name, n)
		e.facts.putAnswer(answerKey{q.p.key, name}, n)
	}
}

// ask asks each endpoint, in federation order, all of its questions in one
// request, or its one question as a plain COUNT or check query. Endpoints
// asked the same cells share one rendering of the batch. An endpoint that
// fails the batch is asked again its own questions one per request, and a
// question that fails that too, or whose endpoint the breaker rejects,
// goes to fail. A batch's own failure is neither warned nor cached.
func (e *Engine) ask(ctx context.Context, r *round) error {
	names := slices.DeleteFunc(e.fed.Names(), func(n string) bool { return len(r.byEP[n]) == 0 })
	texts := make([]string, len(names))
	for k, name := range names {
		list := r.byEP[name]
		if len(list) < 2 {
			continue
		}
		if i := slices.IndexFunc(names[:k], func(n string) bool { return sameCells(r.byEP[n], list) }); i >= 0 {
			texts[k] = texts[i]
			continue
		}
		texts[k] = client.BatchQuery(len(list), list[0].prefix(), func(i int, v string) sparql.Element {
			return list[i].cell(v)
		})
	}
	var rejected []error // called from the submitting goroutine only
	reject := func(k int, err error) {
		for _, q := range own(r.byEP[names[k]]) {
			if err := e.fail(ctx, r, q, names[k], err); err != nil {
				rejected = append(rejected, err)
				return
			}
		}
	}
	err := e.pool.ForEachGated(ctx, names, e.gate(), reject, func(k int) error {
		name, list := names[k], r.byEP[names[k]]
		if len(list) > 1 && e.askBatch(ctx, r, name, list, texts[k]) {
			return nil
		}
		list = own(list)
		// The context ending skips unstarted questions; their endpoints
		// have no answer, so the error ends the round.
		return e.pool.ForEach(ctx, len(list), func(i int) error {
			return e.askOne(ctx, r, name, list[i])
		})
	})
	return errors.Join(append(rejected, err)...)
}

// sameCells reports whether two endpoints' questions render as one batch.
func sameCells(a, b []question) bool {
	return slices.EqualFunc(a, b, func(x, y question) bool { return x.sel == y.sel && x.p == y.p })
}

// askBatch asks endpoint name several questions in one request, the
// batch text, and reports whether it answered.
func (e *Engine) askBatch(ctx context.Context, r *round, name string, list []question, text string) bool {
	span := "check-query"
	if list[0].sel != nil {
		span = "count-probe"
	}
	sp := obs.FromContext(ctx).StartChild(span)
	defer sp.End()
	sp.SetAttr("endpoint", name)
	sp.SetAttr("cells", len(list))
	res, err := e.probeEndpoint(ctx, list[0].phase(), name, text)
	var cells []rdf.Term
	if err == nil {
		cells, err = client.BatchCells(res, len(list), list[0].prefix())
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
		return false
	}
	for k, q := range list {
		e.record(r, q, name, cells[k])
	}
	return true
}

// askOne asks endpoint name one question in a request of its own.
func (e *Engine) askOne(ctx context.Context, r *round, name string, q question) error {
	parent, kind := obs.FromContext(ctx), "count-probe"
	if q.sel != nil {
		parent = q.sel.sp
	} else if q.p.isCheck() {
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
	e.record(r, q, name, q.answer(res))
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
