package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/qplan"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
	"lusail/internal/sparql/sema"
)

// Epoch identifies the planning inputs of an engine at a point in time: the
// federation it runs over and the catalog generation it plans from. Two
// equal epochs guarantee that a Plan built under one is still valid under
// the other — decomposition and GJV analysis are deterministic per query,
// federation, and catalog state — so epochs are the invalidation key for
// plan and result caches layered above the engine.
type Epoch struct {
	Federation uint64 `json:"federation"`
	Catalog    uint64 `json:"catalog"`
}

// String renders the epoch for admin inspection routes.
func (ep Epoch) String() string { return fmt.Sprintf("fed%d/cat%d", ep.Federation, ep.Catalog) }

// Epoch returns the engine's current planning epoch. It changes when the
// catalog is updated (a background refresh, a Put, a Drop); the federation
// component is fixed for the engine's lifetime.
func (e *Engine) Epoch() Epoch {
	ep := Epoch{Federation: e.fed.Epoch()}
	if e.cat != nil {
		ep.Catalog = e.cat.Epoch()
	}
	return ep
}

// Plan is a reusable execution plan for one parsed query: the output of
// source selection, statistics collection, GJV detection, and LADE
// decomposition — everything that precedes SAPE execution. A Plan is
// immutable after Engine.Plan returns and safe to execute concurrently from
// many goroutines: ExecutePlan clones the per-execution state (delay
// decisions) instead of mutating the plan. Caching Plans across requests
// is how a long-running service pays the planning phases once per distinct
// query shape instead of once per call.
type Plan struct {
	query    *sparql.Query
	epoch    Epoch
	branches []*plannedBranch

	// Planning summary, copied into every executing Profile.
	gjvs          []string
	subqueries    int
	decomposition []string
	semaWarnings  []resilience.Warning
	rewriteNotes  []string
}

// plannedBranch is the planned form of one conjunctive branch.
type plannedBranch struct {
	br        *qplan.Branch
	sqs       []*Subquery
	optionals []*optionalPlan
	// empty marks a branch where a mandatory pattern has no relevant
	// source: the branch is provably empty and execution is skipped.
	empty bool
}

// Epoch returns the epoch the plan was built under. A plan whose epoch no
// longer matches Engine.Epoch() may rest on stale catalog decisions and
// should be replanned.
func (p *Plan) Epoch() Epoch { return p.epoch }

// Stale reports whether the engine's planning inputs have changed since the
// plan was built.
func (p *Plan) Stale(e *Engine) bool { return p.epoch != e.Epoch() }

// GJVs returns the detected global join variables.
func (p *Plan) GJVs() []string { return p.gjvs }

// Subqueries returns the number of subqueries after decomposition.
func (p *Plan) Subqueries() int { return p.subqueries }

// Decomposition returns the human-readable subquery forms.
func (p *Plan) Decomposition() []string { return p.decomposition }

// summarize copies the plan's planning summary into a Profile, so
// executions of a cached plan still report what was planned (but not the
// probe counters of the planning run — a cached execution issued none).
func (p *Plan) summarize(prof *Profile) {
	prof.GJVs = append(prof.GJVs, p.gjvs...)
	prof.Subqueries += p.subqueries
	prof.Decomposition = append(prof.Decomposition, p.decomposition...)
	prof.Warnings = append(prof.Warnings, p.semaWarnings...)
	prof.RewriteNotes = append(prof.RewriteNotes, p.rewriteNotes...)
}

// Plan runs the planning phases for a parsed query — source selection,
// COUNT statistics, GJV detection, LADE decomposition — and returns the
// reusable plan. The companion entry points ExecutePlan and
// ExecutePlanStream run a plan; Query is the plan-then-execute convenience.
func (e *Engine) Plan(ctx context.Context, q *sparql.Query) (*Plan, error) {
	return e.plan(ctx, q, &Profile{})
}

// PlanString parses and plans a query.
func (e *Engine) PlanString(ctx context.Context, query string) (*Plan, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.Plan(ctx, q)
}

// plan is the internal planning entry point: it fills prof with the
// planning-phase timings and counters while building the plan. Before
// decomposition it runs the static analysis: error-tier findings reject the
// query with a *sparql.SemaError (no endpoint traffic was spent), warnings
// thread into the profile under client.PhaseSema, and the sema rewrites
// produce the query that is actually planned.
func (e *Engine) plan(ctx context.Context, q *sparql.Query, prof *Profile) (*Plan, error) {
	var semaWarns []resilience.Warning
	if !e.opts.DisableSemaChecks {
		semaErr, rest := sema.Vet(q, "")
		if semaErr != nil {
			e.semaErrors.Inc()
			return nil, semaErr
		}
		for _, d := range rest {
			e.semaWarnings.Inc()
			semaWarns = append(semaWarns, resilience.Warning{
				Phase:   client.PhaseSema,
				Message: d.String(),
			})
		}
		prof.Warnings = append(prof.Warnings, semaWarns...)
	}
	var notes []string
	if !e.opts.DisableQueryRewrite {
		var rewritten *sparql.Query
		rewritten, notes = sema.Rewrite(q)
		if len(notes) > 0 {
			e.semaRewrites.Add(int64(len(notes)))
			q = rewritten
		}
		prof.RewriteNotes = append(prof.RewriteNotes, notes...)
	}

	branches, err := qplan.Normalize(q)
	if err != nil {
		return nil, err
	}
	p := &Plan{query: q, epoch: e.Epoch(), semaWarnings: semaWarns, rewriteNotes: notes}
	sources, err := e.selectSources(ctx, branches, prof)
	if err != nil {
		return nil, err
	}
	for i, br := range branches {
		pb, err := e.planBranch(ctx, br, sources[i], prof)
		if err != nil {
			return nil, err
		}
		p.branches = append(p.branches, pb)
	}
	p.gjvs = append([]string(nil), prof.GJVs...)
	p.subqueries = prof.Subqueries
	p.decomposition = append([]string(nil), prof.Decomposition...)
	return p, nil
}

// selectSources runs phase 1, source selection, for every pattern of every
// branch and OPTIONAL block in one SelectSources call, so each endpoint gets
// at most one probe request per query. A branch's sources list its
// mandatory patterns, then its OPTIONAL blocks' patterns in order.
func (e *Engine) selectSources(ctx context.Context, branches []*qplan.Branch, prof *Profile) ([][][]string, error) {
	t0 := time.Now()
	ctx, sp := obs.StartSpan(ctx, "source-selection")
	defer sp.End()
	if !e.opts.CacheSources {
		e.sel.ClearCache()
	}
	var tps []sparql.TriplePattern
	ends := make([]int, len(branches))
	for i, br := range branches {
		tps = append(tps, br.Patterns...)
		for _, ob := range br.Optionals {
			tps = append(tps, ob.Patterns...)
		}
		ends[i] = len(tps)
	}
	all, err := e.sel.SelectSources(ctx, tps)
	if err != nil {
		return nil, fmt.Errorf("lusail: source selection: %w", err)
	}
	prof.SourceSelection += time.Since(t0)
	out := make([][][]string, len(branches))
	start := 0
	for i, end := range ends {
		out[i], start = all[start:end], end
	}
	return out, nil
}

// planBranch runs phase 2 (LADE analysis) for one conjunctive branch over
// its selected sources.
func (e *Engine) planBranch(ctx context.Context, br *qplan.Branch, selected [][]string, prof *Profile) (*plannedBranch, error) {
	bctx, bsp := obs.StartSpan(ctx, "branch")
	defer bsp.End()
	bsp.SetAttr("patterns", len(br.Patterns))
	ctx = bctx

	sources := selected[:len(br.Patterns)]
	for _, s := range sources {
		if len(s) == 0 {
			// A mandatory pattern with no relevant source: the branch is
			// provably empty; skip analysis and execution.
			return &plannedBranch{br: br, empty: true}, nil
		}
	}

	// Phase 2: LADE analysis — statistics, GJV detection, decomposition.
	t1 := time.Now()
	anCtx, anSpan := obs.StartSpan(ctx, "analysis")
	stats, err := e.collectStats(anCtx, br, sources)
	if err != nil {
		anSpan.End()
		return nil, fmt.Errorf("lusail: statistics: %w", err)
	}
	prof.CountProbes += stats.probes
	prof.CatalogHits += stats.catalogHits

	gjv, err := e.detectGJVs(anCtx, br.Patterns, sources)
	if err != nil {
		anSpan.End()
		return nil, fmt.Errorf("lusail: GJV detection: %w", err)
	}
	prof.ChecksIssued += gjv.ChecksIssued
	prof.CheckCacheHit += gjv.CacheHits
	prof.GJVs = append(prof.GJVs, gjv.GlobalVars()...)

	subqueries := e.decompose(br, sources, gjv, stats)
	prof.Subqueries += len(subqueries)
	for _, sq := range subqueries {
		prof.Decomposition = append(prof.Decomposition, sq.String())
	}
	anSpan.SetAttr("gjvs", strings.Join(gjv.GlobalVars(), ","))
	anSpan.SetAttr("subqueries", len(subqueries))
	anSpan.End()
	prof.Analysis += time.Since(t1)

	return &plannedBranch{br: br, sqs: subqueries, optionals: e.planOptionals(br, selected[len(br.Patterns):])}, nil
}

// cloneSubqueries copies the per-execution subquery state so that one plan
// can execute concurrently: execute mutates delay decisions (Delayed), so
// each execution gets its own Subquery structs. The pattern/source/filter
// slices are shared — execution only reads them.
func cloneSubqueries(sqs []*Subquery) []*Subquery {
	out := make([]*Subquery, len(sqs))
	for i, sq := range sqs {
		c := *sq
		out[i] = &c
	}
	return out
}

// Execution entry points — ExecutePlan (materializing) and
// ExecutePlanStream (cursor) — live in cursor.go; both run the same
// streaming pipeline.
