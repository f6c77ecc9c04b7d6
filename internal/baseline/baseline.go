// Package baseline implements the three systems the paper compares Lusail
// against — FedX (Schwarte et al., ISWC 2011), HiBISCuS (Saleem & Ngonga
// Ngomo, ESWC 2014) and SPLENDID (Görlitz & Staab, COLD 2011) — as three
// policies over one left-deep strategy. The strategy is the comparators'
// own; the mechanisms are Lusail's: a unit is a core.Subquery, fetched
// through core's remote leaf (Engine.Scans), which decodes answers straight
// to ids, and joined, filtered and finished by op's operators, down to
// the VALUES multiset (op.Values) and the branch tail. So the figures
// compare strategies on identical requests, decoders and joins.
//
// The executor selects sources per triple pattern, forms execution units,
// runs them one at a time in the policy's order, and joins each unit into
// the intermediate relation either by shipping the relation's bindings in
// VALUES blocks (a bound join) or by fetching the unit whole and hash
// joining. The relation stays materialized, because the policies decide
// on its size and FedX's LIMIT stop counts its joined rows; Lusail's
// streaming pipeline has neither. What a policy decides is in policy.go.
// Relations are rows of ids in one term dictionary per query; unlike
// Lusail's engine, which shares one across queries, the comparators are
// measured on requests, not on allocation.
//
// The crucial contrast with Lusail: FedX groups triple patterns only when a
// single endpoint can answer them (an exclusive group). When several
// endpoints share a schema — as in LUBM — no exclusive groups exist, the
// query executes one triple pattern at a time, and the number of remote
// requests explodes with the number of endpoints and the size of
// intermediate results. That behavior is what the paper's Figures 9 and 14
// measure.
package baseline

import (
	"context"
	"fmt"
	"math"
	"slices"

	"lusail/internal/core"
	"lusail/internal/erh"
	"lusail/internal/federation"
	"lusail/internal/op"
	"lusail/internal/qplan"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// Engine is one comparator system: the shared executor under one policy.
type Engine struct {
	// pool fans out source selection and the reading of a unit's
	// per-source scans; each scan issues its request from its own
	// collector goroutine.
	pool   *erh.Pool
	leaf   *core.Engine
	budget op.Budget
	pol    policy
}

func newEngine(fed *federation.Federation, pool *erh.Pool, pol policy) *Engine {
	return &Engine{pool: pool, leaf: core.MustNew(fed, core.DefaultOptions()), budget: op.Budget{SpillBytes: op.DefaultSpillBytes}, pol: pol}
}

// QueryString parses and executes a federated query.
func (e *Engine) QueryString(ctx context.Context, query string) (*sparql.Results, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	branches, err := qplan.Normalize(q)
	if err != nil {
		return nil, err
	}
	x := &execution{Engine: e, dict: rdf.NewDict()}
	var rels []op.RowStream
	for _, br := range branches {
		rel, err := x.evalBranch(ctx, q, br)
		if err != nil {
			return nil, err
		}
		rels = append(rels, rel)
	}
	// UNION is a bag union: every branch's rows pass.
	return op.Answer(q, x.dict, op.Finish(q, x.dict, op.Union(rels...)))
}

// execution is one query's run of the executor: its relations are rows of
// ids in dict.
type execution struct {
	*Engine
	dict *rdf.Dict
}

// relation is an intermediate relation of id rows.
type relation struct {
	vars []string
	rows [][]uint32
}

func (r *relation) stream() op.RowStream { return op.NewSlice(r.vars, r.rows) }

func (r *relation) has(v string) bool { return slices.Contains(r.vars, v) }

// collect drains a stream into a relation.
func collect(src op.RowStream) (*relation, error) {
	vars := src.Vars()
	rows, err := op.CollectIDs(src)
	if err != nil {
		return nil, err
	}
	return &relation{vars: vars, rows: rows}, nil
}

// planUnits selects sources for a conjunctive block of patterns and forms
// its units. It returns nil units when some pattern has no source, i.e. the
// block cannot match anywhere.
func (e *Engine) planUnits(ctx context.Context, patterns []sparql.TriplePattern, filters []sparql.Expr) ([]*core.Subquery, error) {
	sources, err := e.pol.sources(ctx, patterns)
	if err != nil {
		return nil, fmt.Errorf("baseline: source selection: %w", err)
	}
	if e.pol.prune != nil {
		sources = e.pol.prune(patterns, sources)
	}
	for _, s := range sources {
		if len(s) == 0 {
			return nil, nil
		}
	}
	return buildUnits(patterns, sources, filters, e.pol.exclusive), nil
}

// buildUnits makes one unit per pattern, each a SELECT DISTINCT as the
// published systems send. With exclusive set it instead merges the
// patterns whose only relevant endpoint is the same single source into
// one exclusive group, and pushes each filter into every unit that binds
// all of its variables (the filter is still applied to the final
// relation, so pushing only trims what is shipped).
func buildUnits(patterns []sparql.TriplePattern, sources [][]string, filters []sparql.Expr, exclusive bool) []*core.Subquery {
	var units []*core.Subquery
	bySource := map[string]*core.Subquery{}
	for i, tp := range patterns {
		if exclusive && len(sources[i]) == 1 {
			if u, ok := bySource[sources[i][0]]; ok {
				u.Patterns = append(u.Patterns, tp)
				continue
			}
		}
		u := &core.Subquery{Patterns: []sparql.TriplePattern{tp}, Sources: sources[i], Distinct: true}
		if exclusive && len(sources[i]) == 1 {
			bySource[sources[i][0]] = u
		}
		units = append(units, u)
	}
	if !exclusive {
		return units
	}
	for _, u := range units {
		for _, f := range filters {
			if used := sparql.ExprVars(f); len(used) > 0 && !slices.ContainsFunc(used, func(v string) bool { return !u.HasVar(v) }) {
				u.Filters = append(u.Filters, f)
			}
		}
	}
	return units
}

// evalBranch runs the policy's left-deep strategy over one branch and
// returns its rows through the tail every branch of every system ends on.
func (e *execution) evalBranch(ctx context.Context, q *sparql.Query, br *qplan.Branch) (op.RowStream, error) {
	empty := op.NewSlice(br.Vars(), nil)
	units, err := e.planUnits(ctx, br.Patterns, br.Filters)
	if err != nil {
		return nil, err
	}
	if units == nil && len(br.Patterns) > 0 { // a branch of OPTIONALs only has no units either
		return empty, nil
	}

	// Early termination applies when any N results are acceptable: FedX
	// stops once LIMIT results are complete (the paper's C4 observation).
	limit := -1
	if e.pol.limitStop && q.Limit >= 0 && len(q.OrderBy) == 0 && !q.Distinct && !q.HasAggregates() &&
		len(br.Optionals) == 0 && len(br.Values) == 0 && q.Offset == 0 {
		limit = q.Limit
	}

	// Left-deep pipeline: the first unit runs unbound, each later one is
	// joined into the intermediate relation, which stays materialized
	// because the policies decide on its size.
	var rel *relation
	bound := map[string]bool{}
	for len(units) > 0 {
		next, best := 0, math.Inf(1)
		for i, u := range units {
			if c := e.pol.cost(u, bound); c < best {
				next, best = i, c
			}
		}
		u := units[next]
		units = append(units[:next], units[next+1:]...)
		if rel == nil {
			rel, err = e.fetch(ctx, u)
		} else {
			stopAt := -1
			if len(units) == 0 {
				stopAt = limit
			}
			var right *relation
			if right, err = e.fetchFor(ctx, u, rel, false, stopAt); err == nil {
				rel, err = e.join(ctx, rel, right)
			}
		}
		if err != nil {
			return nil, err
		}
		if len(rel.rows) == 0 {
			return empty, nil
		}
		for _, v := range u.Vars() {
			bound[v] = true
		}
	}
	if rel == nil {
		rel = &relation{rows: [][]uint32{{}}} // the one empty solution
	}
	// VALUES blocks from the query text join as in-memory relations.
	for i, vd := range br.Values {
		values, err := collect(op.Values(e.dict, vd, i))
		if err == nil {
			rel, err = e.join(ctx, rel, values)
		}
		if err != nil {
			return nil, err
		}
	}

	for _, ob := range br.Optionals {
		orel, err := e.evalOptional(ctx, ob, rel)
		if err != nil {
			return nil, err
		}
		// The block's filters are the left join's condition: they see the
		// variables bound outside the block too.
		rel, err = collect(op.LeftJoin(ctx, rel.stream(), orel.stream(), e.dict, ob.Filters, e.budget))
		if err != nil {
			return nil, err
		}
	}
	// Lusail's branch tail: the branch's filters, set semantics over its
	// variables and op.Values' hidden columns, alignment to its header.
	return op.Align(op.Dedup(op.Filter(rel.stream(), e.dict, br.Filters)), br.Vars()), nil
}

// evalOptional evaluates an OPTIONAL block's patterns for the caller to
// left-join: its units are fetched against the current relation and joined
// with each other.
func (e *execution) evalOptional(ctx context.Context, ob *qplan.OptionalBlock, rel *relation) (*relation, error) {
	units, err := e.planUnits(ctx, ob.Patterns, ob.Filters)
	if err != nil {
		return nil, err
	}
	if units == nil {
		return &relation{}, nil // matches nowhere: extends no row
	}
	var orel *relation
	for _, u := range units {
		right, err := e.fetchFor(ctx, u, rel, true, -1)
		if err != nil {
			return nil, err
		}
		if orel == nil {
			orel = right
		} else if orel, err = e.join(ctx, orel, right); err != nil {
			return nil, err
		}
	}
	return orel, nil
}

// fetch evaluates the unit at all its sources concurrently, one scan of
// core's remote leaf each, and returns the distinct union of the answers
// in federation order: the order FedX's LIMIT stop counts joined rows in
// and DistinctTuples numbers bindings in, whichever answer ends first.
func (e *execution) fetch(ctx context.Context, u *core.Subquery) (*relation, error) {
	scans := e.leaf.Scans(ctx, u, e.dict)
	partial := make([]op.RowStream, len(scans))
	err := e.pool.ForEach(ctx, len(scans), func(i int) error {
		rows, err := op.CollectIDs(scans[i])
		if err != nil {
			return fmt.Errorf("baseline: unit at %s: %w", u.Sources[i], err)
		}
		partial[i] = op.NewSlice(scans[i].Vars(), rows)
		return nil
	})
	if err != nil {
		for _, s := range scans {
			s.Close() // releases those a cancelled ForEach never read
		}
		return nil, err
	}
	return collect(op.Dedup(op.Union(partial...)))
}

// fetchFor fetches the unit's side of a join with rel. When the policy
// picks a bound join, only rows compatible with rel's bindings come back,
// shipped in VALUES blocks; otherwise, and when nothing is shared, the
// unit is fetched whole. With stopAt >= 0, a bound join stops as soon as
// that many joined rows exist (LIMIT pushdown).
func (e *execution) fetchFor(ctx context.Context, u *core.Subquery, rel *relation, optional bool, stopAt int) (*relation, error) {
	shared := slices.DeleteFunc(u.Vars(), func(v string) bool { return !rel.has(v) })
	if len(shared) == 0 || !e.pol.bind(len(rel.rows), optional) {
		return e.fetch(ctx, u)
	}
	idx := make([]int, len(shared))
	for i, v := range shared {
		idx[i] = slices.Index(rel.vars, v)
	}
	rows := op.TermRows(e.dict, op.DistinctTuples(rel.rows, idx))
	right := &relation{vars: u.Vars()}
	joined := 0
	for start := 0; start < len(rows); start += e.pol.block {
		block := *u
		block.Values = []sparql.InlineData{{Vars: shared, Rows: rows[start:min(start+e.pol.block, len(rows))]}}
		part, err := e.fetch(ctx, &block)
		if err != nil {
			return nil, err
		}
		right.rows = append(right.rows, part.rows...)
		if stopAt >= 0 {
			j, err := e.join(ctx, rel, part)
			if err != nil {
				return nil, err
			}
			if joined += len(j.rows); joined >= stopAt {
				break
			}
		}
	}
	return right, nil
}

// join inner-joins two relations through op.HashJoin. The smaller one is
// the build side — or, for a cross product, the probe side — so rows come
// out smaller-relation-major as the left-deep plan has always produced
// them, and FedX's LIMIT stop sees them in the same order.
func (e *execution) join(ctx context.Context, a, b *relation) (*relation, error) {
	if len(a.rows) > len(b.rows) {
		a, b = b, a
	}
	probe, build := b, a
	if !slices.ContainsFunc(a.vars, b.has) {
		probe, build = a, b
	}
	return collect(op.HashJoin(ctx, probe.stream(), build.stream(), e.budget))
}
