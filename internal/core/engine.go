package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/erh"
	"lusail/internal/eval"
	"lusail/internal/federation"
	"lusail/internal/obs"
	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
)

// ThresholdMode selects the delay rule SAPE applies to estimated subquery
// cardinalities (the paper's Section 5.4 sensitivity experiment).
type ThresholdMode int

const (
	// ThresholdMuSigma delays subqueries with cardinality > μ+σ (the
	// paper's default: "μ+σ consistently performs well").
	ThresholdMuSigma ThresholdMode = iota
	// ThresholdMu delays subqueries with cardinality > μ.
	ThresholdMu
	// ThresholdMu2Sigma delays subqueries with cardinality > μ+2σ.
	ThresholdMu2Sigma
	// ThresholdOutliers delays only the Chauvenet-rejected outliers above
	// every kept sample.
	ThresholdOutliers
)

// String returns the label used in figures.
func (m ThresholdMode) String() string {
	switch m {
	case ThresholdMu:
		return "mu"
	case ThresholdMuSigma:
		return "mu+sigma"
	case ThresholdMu2Sigma:
		return "mu+2sigma"
	case ThresholdOutliers:
		return "outliers"
	}
	return "unknown"
}

// FailureMode selects what the engine does when an endpoint request fails
// during query execution.
type FailureMode int

const (
	// FailFast aborts the query on the first endpoint failure (the
	// historical behavior, and the zero value).
	FailFast FailureMode = iota
	// Degrade continues past endpoint failures wherever a sound partial
	// answer exists: the failed endpoint's contribution is excluded
	// (subqueries, bound joins, optionals), its cardinalities stay unknown
	// (COUNT probes), and locality checks fall back to conservatively
	// global decomposition. Every absorbed failure is recorded as a
	// structured Profile.Warnings entry. The answer is complete over the
	// endpoints that responded; rows that needed the failed endpoint are
	// missing.
	Degrade
)

// String returns the CLI flag spelling of the mode.
func (m FailureMode) String() string {
	if m == Degrade {
		return "degrade"
	}
	return "fail"
}

// Options configures a Lusail engine. Fields are grouped by the subsystem
// they tune; the zero value of every field is a safe default (DefaultOptions
// sets the configuration used in the paper's main experiments).
type Options struct {
	// --- Decomposition (source selection + LADE analysis) ---

	// Catalog installs the probe-free tier: fresh endpoint summaries decide
	// source selection and answer constant-predicate cardinalities without
	// COUNT cells, which go only where the catalog cannot decide or count.
	// nil (the default) keeps the pure probe-based protocol of the paper.
	Catalog *catalog.Store
	// CatalogOnly forbids live probes during planning: endpoints the
	// catalog cannot decide are conservatively treated as relevant, and
	// cardinalities it cannot answer stay unknown, instead of being asked
	// with COUNT cells. Requires Catalog; useful when planning must not
	// touch the network.
	CatalogOnly bool

	// --- SAPE (selectivity-aware parallel execution) ---

	// Threshold is the SAPE delay rule (default μ+σ).
	Threshold ThresholdMode
	// ValuesBlockSize is the number of binding rows per VALUES block in
	// bound joins (default 500; larger blocks trade request count for
	// request size, the balance SAPE aims for). A bound join that needs
	// more than one block for more bindings than its subquery can answer
	// runs as an unbound scan instead.
	ValuesBlockSize int
	// DisableSAPE turns off selectivity-aware execution: no subqueries are
	// delayed and results are joined in input order. Used for the LADE-only
	// ablation (paper Figure 14).
	DisableSAPE bool
	// JoinSpillBytes bounds the in-memory build side of each streaming
	// hash join: a build relation whose estimated footprint exceeds the
	// budget spills both join sides to disk and the join finishes as an
	// external sort-merge. <=0 uses the 64 MiB default; it cannot be
	// disabled — unbounded build sides would defeat the pipeline's bounded
	// memory guarantee. It bounds the engine's shared term dictionary too:
	// past this much key text, the next execution starts on a fresh one.
	JoinSpillBytes int64

	// --- Static query analysis (package sema) ---

	// DisableQueryRewrite skips the sema rewrite pass (constant folding,
	// dead FILTER/OPTIONAL elimination, duplicate-pattern removal, FILTER
	// pushdown into UNION branches). Every rewrite is row-multiset
	// preserving, so this is an ablation/debugging switch, not a
	// correctness one. Applied rewrites are listed in Profile.RewriteNotes.
	DisableQueryRewrite bool

	// --- Resilience (fault tolerance against flaky endpoints) ---

	// OnEndpointFailure selects FailFast (abort the query on the first
	// endpoint failure; the default) or Degrade (exclude the failing
	// endpoint's contribution and record a Profile warning).
	OnEndpointFailure FailureMode
	// Resilience tunes circuit breakers and hedged probes. The zero value
	// disables both; resilience.DefaultConfig() enables the recommended
	// settings. Independent of OnEndpointFailure: breakers and hedging
	// shape how requests are issued, OnEndpointFailure decides what a
	// failure means.
	Resilience resilience.Config

	// --- Observability ---

	// Trace records a hierarchical span tree per query (source selection,
	// COUNT probes, check queries, subqueries, bound-join batches, joins)
	// in Profile.Trace, for EXPLAIN output and trace export. Off by
	// default: tracing costs one small allocation per remote request.
	Trace bool
}

// DefaultOptions returns the configuration used in the paper's main
// experiments.
func DefaultOptions() Options {
	return Options{
		Threshold:       ThresholdMuSigma,
		ValuesBlockSize: 500,
		JoinSpillBytes:  op.DefaultSpillBytes,
	}
}

// Validate rejects configurations that cannot mean anything. New calls it,
// so an engine never runs with an inconsistent configuration; callers that
// assemble Options from flags can call it earlier for better error
// placement.
func (o Options) Validate() error {
	if o.ValuesBlockSize < 0 {
		return fmt.Errorf("lusail: negative ValuesBlockSize %d", o.ValuesBlockSize)
	}
	if o.Threshold < ThresholdMuSigma || o.Threshold > ThresholdOutliers {
		return fmt.Errorf("lusail: unknown ThresholdMode %d", o.Threshold)
	}
	if o.OnEndpointFailure != FailFast && o.OnEndpointFailure != Degrade {
		return fmt.Errorf("lusail: unknown FailureMode %d", o.OnEndpointFailure)
	}
	if o.CatalogOnly && o.Catalog == nil {
		return fmt.Errorf("lusail: CatalogOnly requires a Catalog")
	}
	if err := o.Resilience.Validate(); err != nil {
		return err
	}
	return nil
}

// Profile reports per-phase timings and work counters for one query, the
// measurements behind the paper's Figure 12.
type Profile struct {
	SourceSelection time.Duration // first planning round: relevance and COUNT statistics
	Analysis        time.Duration // LADE: the second planning round, when one is left, and decomposition
	Execution       time.Duration // SAPE: subquery evaluation + global join
	Total           time.Duration

	GJVs          []string // detected global join variables
	Subqueries    int      // number of subqueries after decomposition
	Delayed       int      // subqueries evaluated with bound joins
	ChecksIssued  int      // check cells sent, one per check and endpoint asked, in either round
	CheckCacheHit int      // check answers at a relevant endpoint read from the fact cache
	CountProbes   int      // COUNT cells sent, one per pattern and endpoint, in either round
	CatalogHits   int      // cardinalities answered by the catalog (probes avoided)
	Decomposition []string // human-readable subquery forms

	// Terms is the size of the term dictionary the execution used, read at
	// Close. The dictionary is the engine's and outlives the execution, so
	// it counts the terms of earlier and concurrent executions too.
	Terms int

	// SubqueryStats pairs the cost model's estimates with the measured
	// cardinalities of subqueries evaluated unbound, for the q-error
	// analysis of Section 4.1.
	SubqueryStats []SubqueryStat

	// Trace is the query's span tree when Options.Trace is set (nil
	// otherwise). Render it with obs.WriteExplain or export it with
	// obs.WriteJSONL / obs.WriteChromeTrace; sum phase spans with
	// obs.SumByName.
	Trace *obs.Span

	// Warnings lists the endpoint failures absorbed by Degrade mode (one
	// structured entry per degraded decision; always empty under FailFast,
	// where a failure aborts the query instead) plus any warning-tier
	// findings from the static query analysis, under client.PhaseSema.
	Warnings []resilience.Warning

	// RewriteNotes lists the sema rewrites applied to the query before
	// planning (empty with DisableQueryRewrite, or when nothing applied).
	// The rewritten query is what was decomposed and executed.
	RewriteNotes []string
}

// Degraded reports whether the answer excludes any endpoint's contribution.
// Sema findings are advisory — they describe the query, not the answer —
// so they do not count.
func (p *Profile) Degraded() bool {
	for _, w := range p.Warnings {
		if w.Phase != client.PhaseSema {
			return true
		}
	}
	return false
}

// SubqueryStat is one (estimate, actual) cardinality observation.
type SubqueryStat struct {
	Patterns  int     // triple patterns in the subquery
	Estimated float64 // cost-model estimate
	Actual    int     // materialized result rows
}

// Engine is the Lusail federated query processor over a fixed federation.
type Engine struct {
	fed   *federation.Federation
	pool  *erh.Pool
	facts *facts // what planning learned about the endpoints' data
	cat   *catalog.Store
	res   *resilience.Manager
	opts  Options
	join  op.Budget // every hash join's spill budget

	// dict is the term dictionary every execution starts on and keeps
	// until its cursor closes. Once it holds more key text than
	// JoinSpillBytes, the closing cursor swaps in a fresh one.
	dict atomic.Pointer[rdf.Dict]

	degraded     *obs.Counter
	semaErrors   *obs.Counter
	semaWarnings *obs.Counter
	semaRewrites *obs.Counter

	// Source selection by the catalog: every endpoint, some, none.
	catalogHits, catalogPartial, catalogFallbacks *obs.Counter
	// Counts the catalog answered, and COUNT cells sent with a catalog.
	catCardHits, catCardFallbacks *obs.Counter
}

// New returns an engine over the federation, or an error when opts fails
// Validate.
func New(fed *federation.Federation, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.ValuesBlockSize <= 0 {
		opts.ValuesBlockSize = 500
	}
	if opts.JoinSpillBytes <= 0 {
		opts.JoinSpillBytes = op.DefaultSpillBytes
	}
	reg := obs.Default()
	e := &Engine{
		fed:              fed,
		pool:             erh.New(0),
		facts:            newFacts(),
		cat:              opts.Catalog,
		res:              resilience.NewManager(opts.Resilience, reg),
		opts:             opts,
		join:             op.Budget{SpillBytes: opts.JoinSpillBytes},
		degraded:         reg.Counter(obs.MetricDegradedFailures, "endpoint failures absorbed by partial-results mode"),
		semaErrors:       reg.Counter(obs.MetricSemaErrors, "queries rejected by static analysis before planning"),
		semaWarnings:     reg.Counter(obs.MetricSemaWarnings, "warning-tier static-analysis findings"),
		semaRewrites:     reg.Counter(obs.MetricSemaRewrites, "sema rewrites applied before planning"),
		catalogHits:      reg.Counter(obs.MetricCatalogSourceHits, "patterns source-selected entirely from the catalog"),
		catalogPartial:   reg.Counter(obs.MetricCatalogSourcePartial, "patterns where the catalog decided some endpoints and probes the rest"),
		catalogFallbacks: reg.Counter(obs.MetricCatalogSourceFallbacks, "patterns where the catalog decided nothing and all endpoints were probed"),
		catCardHits:      reg.Counter(obs.MetricCatalogCardHits, "cardinalities answered by the catalog instead of COUNT probes"),
		catCardFallbacks: reg.Counter(obs.MetricCatalogCardFallbacks, "COUNT probes issued because the catalog could not answer"),
	}
	e.dict.Store(rdf.NewDict())
	return e, nil
}

// retireDict replaces d as the dictionary new executions start on once it
// holds more key text than the spill budget. Executions still running on
// d keep it, and it is garbage when the last of them closes.
func (e *Engine) retireDict(d *rdf.Dict) {
	if d.Bytes() > e.opts.JoinSpillBytes {
		e.dict.CompareAndSwap(d, rdf.NewDict())
	}
}

// MustNew is New but panics on invalid options; for tests and benchmarks
// that construct options programmatically.
func MustNew(fed *federation.Federation, opts Options) *Engine {
	e, err := New(fed, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Resilience returns the engine's resilience manager (nil when the
// configuration enables neither breakers nor hedging). Exposed for
// benchmarks and diagnostics that observe breaker state or probe latency.
func (e *Engine) Resilience() *resilience.Manager { return e.res }

// Federation returns the engine's federation.
func (e *Engine) Federation() *federation.Federation { return e.fed }

// ClearCaches drops every cached planning fact — relevance, counts and
// check verdicts — as if the engine had just started (used by the cache
// on/off experiments). The term dictionary stays: it answers no planning
// question, so keeping it sends no request a cold engine would not.
func (e *Engine) ClearCaches() { e.facts.clear() }

// QueryString parses and executes a federated query.
func (e *Engine) QueryString(ctx context.Context, query string) (*sparql.Results, *Profile, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	return e.Query(ctx, q)
}

// Query executes a parsed federated query: source selection, LADE
// decomposition, and SAPE evaluation, returning the final results and a
// per-phase profile. It is the plan-then-execute convenience that
// collects the cursor Engine.ExecutePlanStream returns; a serving layer
// that sees the same query shape repeatedly should cache the Plan and
// stream it with ExecutePlanStream directly.
func (e *Engine) Query(ctx context.Context, q *sparql.Query) (*sparql.Results, *Profile, error) {
	ctx, prof, start := e.startQuery(ctx)
	p, err := e.plan(ctx, q, prof)
	if err != nil {
		finishProfile(ctx, prof, start)
		if prof.Trace != nil {
			prof.Trace.End()
		}
		return nil, nil, err
	}
	rows := e.newRows(ctx, p, prof, start)
	res, err := op.Answer(p.query, rows.dict, idRows{rows})
	if err != nil {
		return nil, nil, err
	}
	return res, prof, nil
}

// Construct executes a federated CONSTRUCT query: the WHERE clause is
// evaluated across the federation like a SELECT over all its variables,
// and the solutions instantiate the template into a deduplicated RDF graph.
func (e *Engine) Construct(ctx context.Context, q *sparql.Query) ([]rdf.Triple, *Profile, error) {
	if q.Form != sparql.ConstructForm {
		return nil, nil, fmt.Errorf("lusail: Construct requires a CONSTRUCT query")
	}
	sel := &sparql.Query{
		Form:  sparql.SelectForm,
		Star:  true,
		Where: q.Where,
		Limit: -1,
	}
	res, prof, err := e.Query(ctx, sel)
	if err != nil {
		return nil, nil, err
	}
	return eval.InstantiateTemplate(q.Template, res), prof, nil
}

// ConstructString parses and executes a federated CONSTRUCT query.
func (e *Engine) ConstructString(ctx context.Context, query string) ([]rdf.Triple, *Profile, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	return e.Construct(ctx, q)
}
