package core

import (
	"context"
	"fmt"
	"slices"
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
// many goroutines: ExecutePlanStream clones the per-execution state (delay
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
	residual  []sparql.Expr // branch filters no subquery enforces
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

// Plan runs the planning phases for a parsed query — source selection with
// COUNT statistics, GJV detection, LADE decomposition — and returns the
// reusable plan. ExecutePlanStream runs a plan; Query is the
// plan-then-execute convenience.
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
	semaErr, rest := sema.Vet(q, "")
	if semaErr != nil {
		e.semaErrors.Inc()
		return nil, semaErr
	}
	var semaWarns []resilience.Warning
	for _, d := range rest {
		e.semaWarnings.Inc()
		semaWarns = append(semaWarns, resilience.Warning{
			Phase:   client.PhaseSema,
			Message: d.String(),
		})
	}
	prof.Warnings = append(prof.Warnings, semaWarns...)
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
	facts, err := e.selectSources(ctx, branches, prof)
	if err != nil {
		return nil, err
	}
	gjvs, err := e.detectGJVs(ctx, facts, prof)
	if err != nil {
		return nil, fmt.Errorf("lusail: GJV detection: %w", err)
	}
	for i, br := range branches {
		p.branches = append(p.branches, e.planBranch(ctx, br, facts[i], gjvs[i], prof))
	}
	p.gjvs = append([]string(nil), prof.GJVs...)
	p.subqueries = prof.Subqueries
	p.decomposition = append([]string(nil), prof.Decomposition...)
	return p, nil
}

// branchFacts is what the first planning round learned for one branch: the
// sources of its mandatory patterns, then of its OPTIONAL blocks' patterns
// in order, and the mandatory patterns' cardinalities; and the branch's
// analysis, whose probes rode in that round.
type branchFacts struct {
	sources [][]string
	stats   *queryStats
	lade    *analysis
	// empty marks a branch where a mandatory pattern has no relevant
	// source: it is provably empty, and neither analyzed nor executed.
	empty bool
}

// selectSources is the first planning round: source selection and SAPE's
// statistics for every pattern of every branch and OPTIONAL block at once,
// each endpoint asked at most one request of COUNT cells, with every
// branch's check queries and filtered COUNTs riding along. Only mandatory
// patterns need their counts.
func (e *Engine) selectSources(ctx context.Context, branches []*qplan.Branch, prof *Profile) ([]branchFacts, error) {
	t0 := time.Now()
	ctx, sp := obs.StartSpan(ctx, "source-selection")
	defer sp.End()
	var tps []sparql.TriplePattern
	var ps probes
	out := make([]branchFacts, len(branches))
	for i, br := range branches {
		out[i].lade = ps.analyze(br, len(tps))
		tps = append(tps, br.Patterns...)
	}
	mandatory := len(tps)
	for _, br := range branches {
		for _, ob := range br.Optionals {
			tps = append(tps, ob.Patterns...)
		}
	}
	sels, err := e.firstRound(ctx, tps, mandatory, ps.list, prof)
	if err != nil {
		return nil, fmt.Errorf("lusail: source selection: %w", err)
	}
	prof.SourceSelection += time.Since(t0)
	cataloged := 0
	m, o := 0, mandatory
	for i, br := range branches {
		f := &out[i]
		f.stats = &queryStats{}
		for _, s := range sels[m : m+len(br.Patterns)] {
			f.sources = append(f.sources, s.sources)
			f.stats.card = append(f.stats.card, s.card)
			cataloged += s.cataloged
		}
		m += len(br.Patterns)
		f.empty = slices.ContainsFunc(f.sources, func(s []string) bool { return len(s) == 0 })
		for _, ob := range br.Optionals {
			for _, s := range sels[o : o+len(ob.Patterns)] {
				f.sources = append(f.sources, s.sources)
			}
			o += len(ob.Patterns)
		}
	}
	e.catCardHits.Add(int64(cataloged))
	prof.CatalogHits += cataloged
	return out, nil
}

// planBranch decomposes one conjunctive branch by its GJVs (LADE's
// Algorithm 2).
func (e *Engine) planBranch(ctx context.Context, br *qplan.Branch, facts branchFacts, gjv *GJVResult, prof *Profile) *plannedBranch {
	ctx, bsp := obs.StartSpan(ctx, "branch")
	defer bsp.End()
	bsp.SetAttr("patterns", len(br.Patterns))
	if facts.empty {
		return &plannedBranch{br: br, empty: true}
	}

	t1 := time.Now()
	_, anSpan := obs.StartSpan(ctx, "analysis")
	prof.GJVs = append(prof.GJVs, gjv.GlobalVars()...)
	sources := facts.sources[:len(br.Patterns)]
	subqueries := e.decompose(br, sources, gjv, facts.stats)
	prof.Subqueries += len(subqueries)
	for _, sq := range subqueries {
		prof.Decomposition = append(prof.Decomposition, sq.String())
	}
	anSpan.SetAttr("gjvs", strings.Join(gjv.GlobalVars(), ","))
	anSpan.SetAttr("subqueries", len(subqueries))
	anSpan.End()
	prof.Analysis += time.Since(t1)

	return &plannedBranch{
		br:        br,
		sqs:       subqueries,
		residual:  residualFilters(br, subqueries),
		optionals: e.planOptionals(br, facts.sources[len(br.Patterns):]),
	}
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

// The execution entry point, ExecutePlanStream, lives in cursor.go.
