package core

import (
	"context"
	"math"
	"slices"
	"sync"

	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/qplan"
	"lusail/internal/sparql"
)

// queryStats holds the lightweight runtime statistics SAPE collects during
// query analysis: per-triple-pattern, per-endpoint cardinalities obtained
// with SELECT COUNT probes (Section 4.1) or, when the engine has a fresh
// catalog, from its precomputed summaries.
type queryStats struct {
	// card[i][ep] is the number of solutions of pattern i at endpoint ep.
	// Absence means the cardinality is unknown: the probe returned a
	// malformed result, or it was never issued. Unknown is deliberately not
	// zero — zero claims the pattern is free, and the delay heuristics
	// would then eagerly evaluate a subquery nobody measured.
	card        []map[string]float64
	probes      int // COUNT queries issued
	catalogHits int // cardinalities answered by the catalog (probes avoided)
	malformed   int // probes whose result was unusable
}

// collectStats resolves one cardinality per (pattern, relevant endpoint):
// from the catalog when it can answer (constant-predicate pattern, fresh
// non-truncated summary, no filters to account for), otherwise with a
// SELECT COUNT probe. Filters whose variables are fully covered by a
// pattern are pushed into its probe for better estimates, as the paper
// describes; a pattern with pushed filters never uses the catalog, whose
// counts ignore filters.
func (e *Engine) collectStats(ctx context.Context, br *qplan.Branch, sources [][]string) (*queryStats, error) {
	st := &queryStats{card: make([]map[string]float64, len(br.Patterns))}
	type task struct {
		pattern int
		source  string
	}
	var tasks []task
	for i, srcs := range sources {
		st.card[i] = make(map[string]float64, len(srcs))
		tp := br.Patterns[i]
		filters, _ := coveredFilters(tp.Vars(), br.Filters)
		for _, s := range srcs {
			if e.cat != nil && len(filters) == 0 {
				if n, ok := e.cat.Cardinality(tp, s); ok {
					st.card[i][s] = n
					st.catalogHits++
					continue
				}
			}
			tasks = append(tasks, task{pattern: i, source: s})
		}
	}
	if st.catalogHits > 0 {
		e.catCardHits.Add(int64(st.catalogHits))
	}
	if e.opts.CatalogOnly {
		// Planning must not touch the network: cardinalities the catalog
		// could not answer stay unknown, and the delay heuristics treat
		// their subqueries conservatively.
		return st, nil
	}
	if e.cat != nil && len(tasks) > 0 {
		e.catCardFallbacks.Add(int64(len(tasks)))
	}

	// One request per endpoint: a lone probe is a plain COUNT, several are
	// one SELECT over single-row COUNT sub-selects, which the endpoint
	// answers from its index like the plain ones. A batch that fails falls
	// back to one COUNT per pattern.
	var eps []string
	byEP := map[string][]task{}
	for _, t := range tasks {
		if _, seen := byEP[t.source]; !seen {
			eps = append(eps, t.source)
		}
		byEP[t.source] = append(byEP[t.source], t)
	}
	var mu sync.Mutex
	record := func(t task, n float64, ok bool, sp *obs.Span) {
		mu.Lock()
		defer mu.Unlock()
		if !ok {
			// Malformed COUNT (wrong shape, non-numeric, negative): the
			// cardinality stays unknown rather than becoming zero.
			sp.SetAttr("malformed", true)
			st.malformed++
			return
		}
		sp.SetAttr("count", int(n))
		st.card[t.pattern][t.source] = n
	}
	probe := func(t task) error {
		sp := obs.FromContext(ctx).StartChild("count-probe")
		defer sp.End()
		sp.SetAttr("endpoint", t.source)
		q := countQuery(br.Patterns[t.pattern], br.Filters, "lusail_c").String()
		res, err := e.probeEndpoint(ctx, client.PhaseCount, t.source, q)
		if err != nil {
			if e.degrade(ctx, client.PhaseCount, t.source, err) {
				// The cardinality stays unknown; the endpoint is still
				// queried during execution.
				sp.SetAttr("degraded", true)
				return nil
			}
			return err
		}
		n, ok := client.ScalarCount(res)
		record(t, n, ok, sp)
		return nil
	}
	batch := func(ts []task) bool {
		sp := obs.FromContext(ctx).StartChild("count-probe")
		defer sp.End()
		sp.SetAttr("endpoint", ts[0].source)
		sp.SetAttr("patterns", len(ts))
		cells, err := client.Batch(len(ts), "lusail_c", func(k int, v string) sparql.Element {
			return sparql.SubSelect{Query: countQuery(br.Patterns[ts[k].pattern], br.Filters, v)}
		}, func(q string) (*sparql.Results, error) {
			return e.probeEndpoint(ctx, client.PhaseCount, ts[0].source, q)
		})
		if err != nil {
			sp.SetAttr("error", err.Error())
			return false
		}
		for k, t := range ts {
			n, ok := client.CountValue(cells[k])
			record(t, n, ok, nil)
		}
		return true
	}
	var onReject func(k int, err error)
	if warn := e.onRejectDegrade(ctx, client.PhaseCount, eps); warn != nil {
		onReject = func(k int, err error) {
			for range byEP[eps[k]] {
				warn(k, err)
			}
		}
	}
	err := e.pool.ForEachGated(ctx, eps, e.gate(), onReject, func(k int) error {
		ts := byEP[eps[k]]
		if len(ts) > 1 && batch(ts) {
			return nil
		}
		return e.pool.ForEach(ctx, len(ts), func(i int) error { return probe(ts[i]) })
	})
	st.probes = len(tasks)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// known reports whether every (pattern, source) cardinality of the
// subquery was resolved, i.e. its estimate rests on complete information.
func (st *queryStats) known(patternIdx []int, sources []string) bool {
	for _, pi := range patternIdx {
		for _, ep := range sources {
			if _, ok := st.card[pi][ep]; !ok {
				return false
			}
		}
	}
	return true
}

// countQuery builds `SELECT (COUNT(*) AS ?v) WHERE { tp . filters }` over
// the branch filters tp binds every variable of, for better estimates.
func countQuery(tp sparql.TriplePattern, branchFilters []sparql.Expr, v string) *sparql.Query {
	q := &sparql.Query{
		Form:  sparql.SelectForm,
		Limit: -1,
		Projection: []sparql.Projection{
			{Var: v, Agg: &sparql.Aggregate{Func: "COUNT"}},
		},
		Where: &sparql.GroupPattern{Elements: []sparql.Element{tp}},
	}
	filters, _ := coveredFilters(tp.Vars(), branchFilters)
	for _, f := range filters {
		q.Where.Elements = append(q.Where.Elements, sparql.Filter{Expr: f})
	}
	return q
}

// coveredFilters splits filters into those whose variables vars all bind,
// which a request over them can apply, and the rest. An EXISTS filter is
// never covered.
func coveredFilters(vars []string, filters []sparql.Expr) (covered, rest []sparql.Expr) {
	for _, f := range filters {
		_, isExists := f.(sparql.ExprExists)
		if !isExists && !slices.ContainsFunc(sparql.ExprVars(f), func(v string) bool { return !slices.Contains(vars, v) }) {
			covered = append(covered, f)
		} else {
			rest = append(rest, f)
		}
	}
	return covered, rest
}

// varCardinality estimates C(sq, v): for each endpoint, the minimum count
// among the subquery's patterns that bind v (join upper bound), summed over
// the subquery's sources (the paper's cost model).
func (st *queryStats) varCardinality(sq *Subquery, patternIdx []int, v string, patterns []sparql.TriplePattern) float64 {
	total := 0.0
	for _, ep := range sq.Sources {
		min := math.Inf(1)
		for _, pi := range patternIdx {
			if !patterns[pi].HasVar(v) {
				continue
			}
			if c, ok := st.card[pi][ep]; ok && c < min {
				min = c
			}
		}
		if !math.IsInf(min, 1) {
			total += min
		}
	}
	return total
}

// subqueryCardinality estimates C(sq) as the maximum cardinality over the
// subquery's projected variables.
func (st *queryStats) subqueryCardinality(sq *Subquery, patternIdx []int, patterns []sparql.TriplePattern) float64 {
	max := 0.0
	for _, v := range sq.Vars() {
		if c := st.varCardinality(sq, patternIdx, v, patterns); c > max {
			max = c
		}
	}
	return max
}

// meanStddev returns the mean and population standard deviation.
func meanStddev(xs []float64) (mu, sigma float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mu += x
	}
	mu /= float64(len(xs))
	for _, x := range xs {
		d := x - mu
		sigma += d * d
	}
	sigma = math.Sqrt(sigma / float64(len(xs)))
	return mu, sigma
}

// chauvenetReject applies Chauvenet's criterion: a sample is rejected when
// the expected number of samples as extreme as it (under the fitted normal)
// is below 1/2. Returns the kept samples and a parallel "rejected" mask.
func chauvenetReject(xs []float64) (kept []float64, rejected []bool) {
	rejected = make([]bool, len(xs))
	if len(xs) < 3 {
		return append([]float64(nil), xs...), rejected
	}
	mu, sigma := meanStddev(xs)
	if sigma == 0 {
		return append([]float64(nil), xs...), rejected
	}
	n := float64(len(xs))
	for i, x := range xs {
		z := math.Abs(x-mu) / sigma
		// Two-sided tail probability of |Z| >= z for a standard normal.
		p := math.Erfc(z / math.Sqrt2)
		if n*p < 0.5 {
			rejected[i] = true
		} else {
			kept = append(kept, x)
		}
	}
	if len(kept) == 0 {
		// Degenerate: keep everything rather than divide by zero downstream.
		return append([]float64(nil), xs...), make([]bool, len(xs))
	}
	return kept, rejected
}

// delayDecisions marks subqueries to delay: Chauvenet-rejected outliers are
// always delayed; among the rest, those whose cardinality (or number of
// relevant endpoints) exceeds the mode's threshold are delayed (Figure 7).
//
// known masks the cardinality samples (nil: all known). Unknown
// cardinalities are excluded from the μ/σ statistics — a made-up value
// would distort the thresholds for everyone else — and their subqueries
// are conservatively delayed: evaluating an unmeasured subquery unbound
// risks shipping a huge relation, while a bound join is never worse than
// proportional to the bindings found so far.
func delayDecisions(cards, numEPs []float64, known []bool, mode ThresholdMode) []bool {
	delayed := make([]bool, len(cards))
	mark := func(idx []int, xs []float64) {
		keptVals, rejectedMask := chauvenetReject(xs)
		if mode == ThresholdOutliers {
			for k, r := range rejectedMask {
				if r {
					delayed[idx[k]] = true
				}
			}
			return
		}
		mu, sigma := meanStddev(keptVals)
		var threshold float64
		switch mode {
		case ThresholdMu:
			threshold = mu
		case ThresholdMu2Sigma:
			threshold = mu + 2*sigma
		default: // ThresholdMuSigma
			threshold = mu + sigma
		}
		for k, x := range xs {
			if rejectedMask[k] || x > threshold {
				delayed[idx[k]] = true
			}
		}
	}

	var idx []int
	var knownCards []float64
	for i, c := range cards {
		if known != nil && !known[i] {
			delayed[i] = true
			continue
		}
		idx = append(idx, i)
		knownCards = append(knownCards, c)
	}
	mark(idx, knownCards)

	all := make([]int, len(numEPs))
	for i := range all {
		all[i] = i
	}
	mark(all, numEPs)
	return delayed
}
