// Package federation models a set of independent SPARQL endpoints and
// implements the machinery shared by all federated engines in this
// repository: the endpoint registry, ASK-based source selection with
// caching, and per-query request accounting.
package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lusail/internal/client"
	"lusail/internal/erh"
	"lusail/internal/obs"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
)

// Federation is an ordered registry of endpoints.
type Federation struct {
	eps    []client.Endpoint
	byName map[string]client.Endpoint
	epoch  uint64
}

// fedEpochs hands each federation a process-unique epoch at construction.
// A federation is immutable after New, so its identity doubles as its
// planning epoch: two equal epochs imply the same endpoint set.
var fedEpochs atomic.Uint64

// New returns a federation over the given endpoints. Endpoint names must be
// unique.
func New(eps ...client.Endpoint) (*Federation, error) {
	f := &Federation{
		byName: make(map[string]client.Endpoint, len(eps)),
		epoch:  fedEpochs.Add(1),
	}
	for _, ep := range eps {
		if _, dup := f.byName[ep.Name()]; dup {
			return nil, fmt.Errorf("federation: duplicate endpoint name %q", ep.Name())
		}
		f.byName[ep.Name()] = ep
		f.eps = append(f.eps, ep)
	}
	return f, nil
}

// Epoch returns the federation's process-unique construction epoch. Plans
// and caches keyed on it are invalidated by swapping in a new federation.
func (f *Federation) Epoch() uint64 { return f.epoch }

// MustNew is New but panics on error; for tests and generators that
// construct names programmatically.
func MustNew(eps ...client.Endpoint) *Federation {
	f, err := New(eps...)
	if err != nil {
		panic(err)
	}
	return f
}

// Endpoints returns the endpoints in registration order.
func (f *Federation) Endpoints() []client.Endpoint { return f.eps }

// Names returns the endpoint names in registration order.
func (f *Federation) Names() []string {
	out := make([]string, len(f.eps))
	for i, ep := range f.eps {
		out[i] = ep.Name()
	}
	return out
}

// Get returns the endpoint with the given name, or nil.
func (f *Federation) Get(name string) client.Endpoint { return f.byName[name] }

// Size returns the number of endpoints.
func (f *Federation) Size() int { return len(f.eps) }

// TierDecision classifies one endpoint for one triple pattern, as answered
// by the probe-free catalog tier of source selection.
type TierDecision int

const (
	// TierUnknown means the catalog cannot decide (missing, stale, or
	// partial summary); the endpoint must be ASK-probed.
	TierUnknown TierDecision = iota
	// TierRelevant means the endpoint may hold matches of the pattern and
	// must be included. The catalog may over-approximate here (e.g. an
	// authority sketch cannot distinguish two entities of one authority);
	// including a non-matching endpoint costs work but never correctness.
	TierRelevant
	// TierIrrelevant means the endpoint provably holds no match of the
	// pattern (e.g. the predicate does not occur there) and is pruned
	// without a probe.
	TierIrrelevant
)

// String returns the span-attribute label of the decision.
func (d TierDecision) String() string {
	switch d {
	case TierRelevant:
		return "relevant"
	case TierIrrelevant:
		return "irrelevant"
	}
	return "unknown"
}

// CatalogTier answers source-selection questions from precomputed data
// summaries so that ASK probes are only issued for endpoints the summaries
// cannot decide. Implemented by *catalog.Store.
type CatalogTier interface {
	// Decide classifies the endpoint for the pattern. It must be safe for
	// concurrent use and must return TierUnknown rather than guess when its
	// information is stale or incomplete.
	Decide(tp sparql.TriplePattern, endpoint string) TierDecision
}

// SourceSelector performs per-triple-pattern source selection with a
// two-tier strategy: a probe-free catalog tier (when configured with
// SetCatalog) answers from precomputed data summaries, and SPARQL ASK
// probes settle whatever the catalog cannot decide, one request per
// endpoint per SelectSources call. Results are cached by the normalized
// pattern (like Lusail and FedX, which both cache ASK results).
type SourceSelector struct {
	fed  *Federation
	pool *erh.Pool

	mu          sync.Mutex
	cache       map[string][]string // normalized pattern -> relevant endpoint names
	catalog     CatalogTier
	catalogOnly bool
	res         *resilience.Manager

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	catalogHits      *obs.Counter
	catalogPartial   *obs.Counter
	catalogFallbacks *obs.Counter
	probeFailures    *obs.Counter
}

// NewSourceSelector returns a selector over the federation using the pool
// for concurrent ASK probes. Cache hits and misses are reported into the
// default obs registry.
func NewSourceSelector(fed *Federation, pool *erh.Pool) *SourceSelector {
	reg := obs.Default()
	return &SourceSelector{
		fed:              fed,
		pool:             pool,
		cache:            map[string][]string{},
		cacheHits:        reg.Counter(obs.MetricSourceCacheHits, "source-selection ASK cache hits"),
		cacheMisses:      reg.Counter(obs.MetricSourceCacheMisses, "source-selection ASK cache misses"),
		catalogHits:      reg.Counter(obs.MetricCatalogSourceHits, "patterns source-selected entirely from the catalog"),
		catalogPartial:   reg.Counter(obs.MetricCatalogSourcePartial, "patterns where the catalog decided some endpoints and ASK probes the rest"),
		catalogFallbacks: reg.Counter(obs.MetricCatalogSourceFallbacks, "patterns where the catalog decided nothing and all endpoints were ASK-probed"),
		probeFailures:    reg.Counter(obs.MetricSourceProbeFailures, "ASK probes that failed and were conservatively treated as relevant"),
	}
}

// SetCatalog installs (or, with nil, removes) the probe-free catalog tier
// consulted before ASK probes.
func (s *SourceSelector) SetCatalog(c CatalogTier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.catalog = c
}

// SetCatalogOnly forbids ASK probes: endpoints the catalog cannot decide
// are conservatively treated as relevant instead of being probed. Sound
// (over-approximate) but never issues planning traffic.
func (s *SourceSelector) SetCatalogOnly(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.catalogOnly = on
}

// SetResilience installs (or, with nil, removes) the resilience manager
// through which ASK probes are issued: probes gain circuit-breaker gating
// and tail hedging. A nil manager is the disabled state.
func (s *SourceSelector) SetResilience(m *resilience.Manager) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res = m
}

// ClearCache drops all cached source-selection results.
func (s *SourceSelector) ClearCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = map[string][]string{}
}

// CacheLen returns the number of cached patterns (for tests and profiling).
func (s *SourceSelector) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// RelevantSources returns the names of the endpoints that may have at least
// one triple matching the pattern, in federation order: SelectSources for
// one pattern, which probes each undecided endpoint with an ASK.
func (s *SourceSelector) RelevantSources(ctx context.Context, tp sparql.TriplePattern) ([]string, error) {
	out, err := s.SelectSources(ctx, []sparql.TriplePattern{tp})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// selection is the source selection of one distinct normalized pattern.
type selection struct {
	tp       sparql.TriplePattern
	sp       *obs.Span
	names    []string
	relevant []bool  // per endpoint
	probed   []int   // endpoints left undecided by the cache and catalog
	errs     []error // per endpoint, the failed probe
}

// SelectSources returns, for each pattern, the names of the endpoints that
// may have at least one triple matching it, in federation order; patterns
// equal up to variable names are selected once. The cache, then the catalog
// tier decide first. Each endpoint left undecided for some patterns gets
// one request: an ASK for one pattern, else a SELECT of BIND(EXISTS { tp }
// AS ?lusail_aN) cells, where a cell that is not a boolean counts as
// relevant. A batch that fails is re-asked one ASK per pattern, and a
// failed ASK keeps its endpoint as relevant with a warning; the call fails
// only when every probe of some pattern failed or the context ended.
func (s *SourceSelector) SelectSources(ctx context.Context, tps []sparql.TriplePattern) ([][]string, error) {
	s.mu.Lock()
	catalog, catalogOnly, res := s.catalog, s.catalogOnly, s.res
	s.mu.Unlock()
	eps := s.fed.Endpoints()
	parent := obs.FromContext(ctx)

	keys := make([]string, len(tps))
	byKey := map[string]*selection{}
	perEP := make([][]*selection, len(eps)) // the undecided patterns of each endpoint
	for i, tp := range tps {
		key := NormalizePattern(tp)
		keys[i] = key
		if _, dup := byKey[key]; dup {
			s.cacheHits.Inc()
			continue
		}
		sel := &selection{tp: tp, sp: parent.StartChild("select-sources")}
		byKey[key] = sel
		sel.sp.SetAttr("pattern", key)
		s.mu.Lock()
		cached, hit := s.cache[key]
		s.mu.Unlock()
		if hit {
			s.cacheHits.Inc()
			sel.sp.SetAttr("cache", "hit")
			sel.names = cached
			continue
		}
		s.cacheMisses.Inc()
		sel.sp.SetAttr("cache", "miss")
		sel.relevant = make([]bool, len(eps))
		sel.errs = make([]error, len(eps))
		s.decide(catalog, catalogOnly, sel)
		for _, j := range sel.probed {
			perEP[j] = append(perEP[j], sel)
		}
	}

	var work []int // endpoints with undecided patterns
	var names []string
	for j, list := range perEP {
		if len(list) > 0 {
			work = append(work, j)
			names = append(names, eps[j].Name())
		}
	}
	onReject := func(k int, err error) {
		for _, sel := range perEP[work[k]] {
			s.fail(ctx, sel, work[k], err)
		}
	}
	err := s.pool.ForEachGated(ctx, names, res.Gate(), onReject, func(k int) error {
		j := work[k]
		list := perEP[j]
		if len(list) > 1 && s.askBatch(ctx, res, parent, j, list) {
			return nil
		}
		// The context ending skips unstarted ASKs; their endpoints have no
		// answer, so the error aborts the selection.
		return s.pool.ForEach(ctx, len(list), func(k int) error {
			s.ask(ctx, res, list[k], j)
			return nil
		})
	})

	for key, sel := range byKey {
		if sel.relevant != nil && err == nil {
			allFailed := len(sel.probed) > 0
			for _, j := range sel.probed {
				allFailed = allFailed && sel.errs[j] != nil
			}
			if allFailed {
				// Every probe failed: there is no information to degrade onto.
				err = errors.Join(sel.errs...)
			}
			for j, ok := range sel.relevant {
				if ok {
					sel.names = append(sel.names, eps[j].Name())
				}
			}
			s.mu.Lock()
			s.cache[key] = sel.names
			s.mu.Unlock()
		}
		sel.sp.SetAttr("sources", strings.Join(sel.names, ","))
		sel.sp.End()
	}
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(tps))
	for i, key := range keys {
		out[i] = byKey[key].names
	}
	return out, nil
}

// decide consults the catalog tier for a cache miss: it marks the
// endpoints the catalog proves relevant and lists those left to probe.
func (s *SourceSelector) decide(catalog CatalogTier, catalogOnly bool, sel *selection) {
	eps := s.fed.Endpoints()
	for j, ep := range eps {
		d := TierUnknown
		if catalog != nil {
			d = catalog.Decide(sel.tp, ep.Name())
		}
		switch d {
		case TierRelevant:
			sel.relevant[j] = true
		case TierUnknown:
			sel.probed = append(sel.probed, j)
		}
	}
	tier := "ask"
	switch {
	case catalog == nil:
	case len(sel.probed) == 0:
		s.catalogHits.Inc()
		tier = "catalog"
	case len(sel.probed) == len(eps):
		s.catalogFallbacks.Inc()
	default:
		s.catalogPartial.Inc()
		tier = "catalog+ask"
	}
	if len(sel.probed) > 0 && catalogOnly {
		// Probe-free planning: undecided endpoints are conservatively kept
		// as candidate sources. Over-approximate but sound — an irrelevant
		// endpoint contributes empty subquery results, never wrong ones.
		for _, j := range sel.probed {
			sel.relevant[j] = true
		}
		sel.probed = nil
		tier = "catalog-only"
	}
	sel.sp.SetAttr("tier", tier)
}

// askBatch probes endpoint j for several patterns in one request and
// reports whether it answered.
func (s *SourceSelector) askBatch(ctx context.Context, res *resilience.Manager, parent *obs.Span, j int, list []*selection) bool {
	ep := s.fed.Endpoints()[j]
	sp := parent.StartChild("ask")
	defer sp.End()
	sp.SetAttr("endpoint", ep.Name())
	sp.SetAttr("patterns", len(list))
	cells, err := client.Batch(len(list), client.ExistsVar, func(k int, v string) sparql.Element {
		return sparql.Bind{Var: v, Expr: sparql.ExprExists{Group: &sparql.GroupPattern{Elements: []sparql.Element{list[k].tp}}}}
	}, func(q string) (*sparql.Results, error) { return res.DoHedged(ctx, ep, q) })
	if err != nil {
		sp.SetAttr("error", err.Error())
		return false
	}
	for k, sel := range list {
		ok, isBool := cells[k].Bool()
		sel.relevant[j] = ok || !isBool
	}
	return true
}

// ask probes endpoint j for one pattern with an ASK.
func (s *SourceSelector) ask(ctx context.Context, res *resilience.Manager, sel *selection, j int) {
	ep := s.fed.Endpoints()[j]
	sp := sel.sp.StartChild("ask")
	defer sp.End()
	sp.SetAttr("endpoint", ep.Name())
	r, err := res.DoHedged(ctx, ep, askQuery(sel.tp))
	var ok bool
	if err == nil {
		ok, err = client.Boolean(r, ep.Name())
	}
	if err != nil {
		// One unreachable endpoint must not abort the whole query.
		s.fail(ctx, sel, j, err)
		sp.SetAttr("error", err.Error())
		ok = true
	}
	sp.SetAttr("relevant", ok)
	sel.relevant[j] = ok
}

// fail records that endpoint j could not be probed for the pattern: it is
// conservatively treated as relevant, with a warning.
func (s *SourceSelector) fail(ctx context.Context, sel *selection, j int, err error) {
	name := s.fed.Endpoints()[j].Name()
	sel.errs[j] = &client.EndpointError{Endpoint: name, Phase: client.PhaseSourceSelection, Err: err}
	s.probeFailures.Inc()
	sel.relevant[j] = true
	resilience.Warn(ctx, resilience.Warning{
		Endpoint: name,
		Phase:    client.PhaseSourceSelection,
		Message:  "probe failed; endpoint conservatively treated as relevant: " + err.Error(),
	})
}

// askQuery builds the ASK probe for one triple pattern.
func askQuery(tp sparql.TriplePattern) string {
	q := sparql.NewAsk()
	q.Where.Elements = append(q.Where.Elements, tp)
	return q.String()
}

// NormalizePattern renders a pattern with canonicalized variable names so
// that structurally identical patterns share one cache entry, while
// patterns that repeat a variable keep their self-join structure.
func NormalizePattern(tp sparql.TriplePattern) string {
	names := map[string]string{}
	canon := func(pt sparql.PatternTerm) string {
		if !pt.IsVar() {
			return pt.Term.String()
		}
		if n, ok := names[pt.Var]; ok {
			return n
		}
		n := fmt.Sprintf("?v%d", len(names))
		names[pt.Var] = n
		return n
	}
	return canon(tp.S) + " " + canon(tp.P) + " " + canon(tp.O)
}

// SameSources reports whether two sorted-or-unsorted source lists contain
// the same endpoint names.
func SameSources(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// IntersectSources returns the names present in both lists, preserving the
// order of a.
func IntersectSources(a, b []string) []string {
	set := make(map[string]bool, len(b))
	for _, n := range b {
		set[n] = true
	}
	var out []string
	for _, n := range a {
		if set[n] {
			out = append(out, n)
		}
	}
	return out
}

// SourcesKey returns a canonical string for a set of sources.
func SourcesKey(names []string) string {
	s := append([]string(nil), names...)
	sort.Strings(s)
	return strings.Join(s, ",")
}
