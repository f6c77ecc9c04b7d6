package core

import (
	"context"
	"slices"

	"lusail/internal/client"
	"lusail/internal/qplan"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// delay makes SAPE's delay decisions over a branch's mandatory subqueries
// (Figure 7).
func (e *Engine) delay(sqs []*Subquery) {
	if e.opts.DisableSAPE || len(sqs) < 2 {
		return
	}
	cards := make([]float64, len(sqs))
	numEPs := make([]float64, len(sqs))
	known := make([]bool, len(sqs))
	for i, sq := range sqs {
		cards[i] = sq.EstCard
		numEPs[i] = float64(len(sq.Sources))
		known[i] = sq.CardKnown
	}
	for i, d := range delayDecisions(cards, numEPs, known, e.opts.Threshold) {
		sqs[i].Delayed = d
	}
	ensureNonDelayed(sqs)
}

// ensureNonDelayed guarantees phase 1 has work: if every subquery got
// delayed, the most selective one is promoted to non-delayed.
func ensureNonDelayed(sqs []*Subquery) {
	anyNonDelayed := false
	for _, sq := range sqs {
		if !sq.Delayed {
			anyNonDelayed = true
			break
		}
	}
	if anyNonDelayed {
		return
	}
	// Prefer promoting a subquery whose cardinality was actually measured;
	// among those (or all, when nothing was measured), the most selective.
	best := 0
	for i, sq := range sqs {
		switch {
		case sq.CardKnown && !sqs[best].CardKnown:
			best = i
		case sq.CardKnown == sqs[best].CardKnown && sq.EstCard < sqs[best].EstCard:
			best = i
		}
	}
	sqs[best].Delayed = false
}

// refineSources re-runs source selection for generic subqueries (those
// containing a variable-predicate pattern, which are relevant to every
// endpoint) using the found bindings, as Algorithm 3 line 13 prescribes: an
// ASK with the VALUES block attached prunes endpoints that cannot
// contribute. The ASK probes cost far less than shipping bound subqueries
// to irrelevant endpoints, as the paper verified empirically. The ASK
// carries the block's own bindings, so when every endpoint answers false
// the block has no solution and no source is returned; an endpoint whose
// probe was rejected or degraded is kept.
func (e *Engine) refineSources(ctx context.Context, sq *Subquery, shared []string, rows [][]rdf.Term) ([]string, error) {
	if !hasVarPredicate(sq) || len(sq.Sources) < 2 {
		return sq.Sources, nil
	}
	ask := sparql.NewAsk()
	for _, tp := range sq.Patterns {
		ask.Where.Elements = append(ask.Where.Elements, tp)
	}
	ask.Where.Elements = append(ask.Where.Elements, sparql.InlineData{Vars: shared, Rows: rows})
	text := ask.String()

	keep := make([]bool, len(sq.Sources))
	// A breaker-rejected refinement probe keeps its endpoint: refinement
	// only prunes, and pruning on missing information would drop results.
	onReject := func(i int, err error) { keep[i] = true }
	err := e.pool.ForEachGated(ctx, sq.Sources, e.gate(), onReject, func(i int) error {
		res, err := e.probeEndpoint(ctx, client.PhaseRefinement, sq.Sources[i], text)
		if err != nil {
			if e.degrade(ctx, client.PhaseRefinement, sq.Sources[i], err) {
				keep[i] = true
				return nil
			}
			return err
		}
		ok, err := client.Boolean(res, sq.Sources[i])
		if err != nil {
			return &client.EndpointError{Endpoint: sq.Sources[i], Phase: client.PhaseRefinement, Err: err}
		}
		keep[i] = ok
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for i, k := range keep {
		if k {
			out = append(out, sq.Sources[i])
		}
	}
	return out, nil
}

// hasVarPredicate reports whether any pattern has a variable in predicate
// position (the <?s ?p ?o>-style generic patterns of Section 4.2).
func hasVarPredicate(sq *Subquery) bool {
	for _, tp := range sq.Patterns {
		if tp.P.IsVar() {
			return true
		}
	}
	return false
}

// planOptionals wraps each OPTIONAL block as an optional subquery over the
// endpoints relevant to all its patterns; sources lists the blocks'
// patterns in order. When no endpoint is relevant to all of them but every
// pattern has one, the block is split instead: each pattern runs as its
// own optional subquery over its own sources, with the filters it covers,
// and their scans join before the left join. (Decomposing the block like
// a branch would group its patterns as LADE does; the split is the
// interim answer.) A block with a pattern no endpoint holds never extends
// any row.
func (e *Engine) planOptionals(br *qplan.Branch, sources [][]string) []*optionalPlan {
	var out []*optionalPlan
	for _, ob := range br.Optionals {
		own := sources[:len(ob.Patterns)]
		sources = sources[len(ob.Patterns):]
		names := e.fed.Names()
		for _, s := range own {
			names = intersectSources(names, s)
		}
		sq := &Subquery{Patterns: ob.Patterns, Sources: names, Optional: true}
		sq.EstCard = float64(len(names)) // coarse: more endpoints, later
		plan := &optionalPlan{sq: sq}
		out = append(out, plan)
		if len(names) > 0 || slices.ContainsFunc(own, func(s []string) bool { return len(s) == 0 }) {
			// Push optional-scoped filters that the block fully binds.
			sq.Filters, plan.residual = coveredFilters(sq.Vars(), ob.Filters)
			continue
		}
		plan.residual = ob.Filters
		for i, tp := range ob.Patterns {
			part := &Subquery{Patterns: []sparql.TriplePattern{tp}, Sources: own[i], Optional: true}
			part.Filters, plan.residual = coveredFilters(part.Vars(), plan.residual)
			plan.parts = append(plan.parts, part)
			sq.EstCard += float64(len(own[i]))
		}
	}
	return out
}

type optionalPlan struct {
	sq *Subquery
	// parts, when set, run the block instead of sq, whose patterns share
	// no endpoint: one optional subquery per pattern.
	parts    []*Subquery
	residual []sparql.Expr // filters evaluated on the joined rows
}
