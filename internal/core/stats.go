package core

import (
	"math"
	"slices"

	"lusail/internal/sparql"
)

// queryStats holds the lightweight runtime statistics SAPE collects during
// query analysis: per-triple-pattern, per-endpoint cardinalities, which
// COUNT probes (Section 4.1) or a fresh catalog's summaries answer. Source
// selection counts every pattern; a pattern with pushed filters is counted
// again under them, by a COUNT riding in the same requests, for better
// estimates.
type queryStats struct {
	// card[i][ep] is the number of solutions of pattern i at endpoint ep.
	// Absence means the cardinality is unknown: the probe returned a
	// malformed result, or it was never issued. Unknown is deliberately not
	// zero — zero claims the pattern is free, and the delay heuristics
	// would then eagerly evaluate a subquery nobody measured.
	card []map[string]float64
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

// covers reports whether vars bind every variable of the filter, so that
// a request over them can apply it.
func covers(vars []string, f sparql.Expr) bool {
	return !slices.ContainsFunc(sparql.ExprVars(f), func(v string) bool { return !slices.Contains(vars, v) })
}

// coveredFilters splits filters into those vars cover and the rest.
func coveredFilters(vars []string, filters []sparql.Expr) (covered, rest []sparql.Expr) {
	for _, f := range filters {
		if covers(vars, f) {
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

// delayDecisions marks subqueries to delay (Figure 7): those whose
// cardinality, or number of relevant endpoints, exceeds the mode's
// threshold over the samples Chauvenet's criterion keeps. A rejected
// sample is delayed only when it lies above every kept sample: a low
// outlier is the cheapest subquery to evaluate unbound, and bound-joining
// a large relation into it pays a request per block for rows a single
// scan returns. ThresholdOutliers delays the high rejected samples alone.
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
		mu, sigma := meanStddev(keptVals)
		var threshold float64
		switch mode {
		case ThresholdMu:
			threshold = mu
		case ThresholdMu2Sigma:
			threshold = mu + 2*sigma
		case ThresholdOutliers:
			threshold = math.Inf(1)
		default: // ThresholdMuSigma
			threshold = mu + sigma
		}
		for k, x := range xs {
			// A rejected sample leaves a non-empty kept set behind.
			if rejectedMask[k] && x > slices.Max(keptVals) || x > threshold {
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
