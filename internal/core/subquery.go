// Package core implements Lusail, the paper's federated SPARQL engine:
//
//   - LADE (Locality-Aware DEcomposition): instance-aware detection of
//     global join variables via FILTER NOT EXISTS check queries
//     (Algorithm 1) and cost-guided decomposition of the query into
//     endpoint-local subqueries (Algorithm 2).
//   - SAPE (Selectivity-Aware Planning and parallel Execution): cardinality
//     estimation from COUNT probes, Chauvenet-filtered μ+σ delay rule,
//     concurrent evaluation of non-delayed subqueries, bound-join (VALUES)
//     evaluation of delayed subqueries with source refinement (Algorithm
//     3), as a tree of streaming operators joined greedily by connectivity
//     (pipeline.go). A bound join whose bindings outnumber what its
//     subquery can answer runs as an unbound scan instead (boundjoin.go).
package core

import (
	"sort"
	"strings"

	"lusail/internal/sparql"
)

// Subquery is an independent unit of execution produced by LADE: a set of
// triple patterns that every relevant endpoint can answer without missing
// results, plus any filters that were pushed into it.
type Subquery struct {
	// Patterns are the triple patterns evaluated together at each endpoint.
	Patterns []sparql.TriplePattern
	// Filters are filter expressions pushed into the subquery (every
	// variable they mention is bound by Patterns).
	Filters []sparql.Expr
	// Values are the query's VALUES blocks pushed into the subquery (every
	// variable they mention is bound by Patterns), then, in a bound join's
	// copy for one block, the block's bindings.
	Values []sparql.InlineData
	// Sources are the names of the relevant endpoints.
	Sources []string
	// Optional marks a subquery originating from an OPTIONAL block; it is
	// left-joined at the global level.
	Optional bool
	// Distinct renders the subquery as a SELECT DISTINCT. Lusail never
	// sets it (see Query); the comparators (internal/baseline) do, as
	// their published systems send it.
	Distinct bool

	// EstCard is SAPE's estimated cardinality (set during planning).
	EstCard float64
	// CardKnown reports whether EstCard rests on complete statistics:
	// false when any underlying COUNT probe returned a malformed result,
	// so the estimate is partial and the delay heuristics must treat the
	// subquery conservatively rather than trust a number nobody measured.
	CardKnown bool
	// Delayed marks the subquery for bound-join evaluation in SAPE's second
	// phase.
	Delayed bool

	// varCards are the estimates C(sq, v) of the distinct values of each
	// variable, aligned with Vars(); EstCard is their maximum. A bound
	// join bounds the join tuples the subquery can answer by them.
	varCards []float64

	// patternIdx are the indexes of Patterns in the analyzed branch's
	// pattern list, used to look up per-pattern statistics.
	patternIdx []int
}

// Vars returns the sorted variable names bound by the subquery's patterns.
func (sq *Subquery) Vars() []string {
	seen := map[string]bool{}
	for _, tp := range sq.Patterns {
		for _, v := range tp.Vars() {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// HasVar reports whether any pattern binds v.
func (sq *Subquery) HasVar(v string) bool {
	for _, tp := range sq.Patterns {
		if tp.HasVar(v) {
			return true
		}
	}
	return false
}

// SharedVars returns the variables the two subqueries have in common.
func (sq *Subquery) SharedVars(other *Subquery) []string {
	var out []string
	for _, v := range sq.Vars() {
		if other.HasVar(v) {
			out = append(out, v)
		}
	}
	return out
}

// Query renders the subquery as an executable SELECT projecting all its
// variables, with its VALUES blocks appended (a bound-join block's
// bindings are its last). Unless Distinct is set it is a plain SELECT: a
// basic graph pattern over a set graph, with every variable projected, has
// no duplicate solutions, and the pushed VALUES blocks and a bound join's
// block carry distinct rows, so an endpoint's DISTINCT would hash every
// row it ships and remove none. The same triple held at two endpoints
// does answer twice, which no one endpoint can see; the branch tail's
// op.Dedup over all the branch's variables removes those rows.
func (sq *Subquery) Query() *sparql.Query {
	q := sparql.NewSelect(sq.Vars()...)
	q.Distinct = sq.Distinct
	for _, tp := range sq.Patterns {
		q.Where.Elements = append(q.Where.Elements, tp)
	}
	for _, vd := range sq.Values {
		q.Where.Elements = append(q.Where.Elements, vd)
	}
	for _, f := range sq.Filters {
		q.Where.Elements = append(q.Where.Elements, sparql.Filter{Expr: f})
	}
	return q
}

// String renders a compact human-readable form for logs and tests.
func (sq *Subquery) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, tp := range sq.Patterns {
		if i > 0 {
			b.WriteString(" . ")
		}
		b.WriteString(tp.String())
	}
	b.WriteString("}@[")
	b.WriteString(strings.Join(sq.Sources, ","))
	b.WriteString("]")
	if sq.Optional {
		b.WriteString(" OPTIONAL")
	}
	if sq.Delayed {
		b.WriteString(" DELAYED")
	}
	return b.String()
}
