package store

import "lusail/internal/rdf"

// Wildcard is the id MatchIDs and CountIDs read as "any term". No
// dictionary assigns it.
const Wildcard = ^uint32(0)

// Graph is the read surface an RDF backend exposes to the SPARQL evaluator,
// the in-process endpoint client, and the HTTP endpoint server. Two
// implementations exist: the in-memory *Store in this package and the
// disk-backed, compressed *diskstore.Store. Everything above the evaluator
// (federation, resilience, the `lusail serve` tier) talks SPARQL and never
// sees this interface, so an endpoint can serve either backend without any
// change to the federated code paths.
//
// Both backends are dictionary-encoded, and the interface exposes that: a
// term maps to a uint32 id, and the id-level methods match and count
// without turning ids into terms. Ids are specific to one backend
// instance, stable for its lifetime, and stay below 1<<31.
//
// Implementations must be safe for concurrent readers, and a callback may
// call back into the graph. Mutability is not part of the contract: the
// disk backend is immutable after open.
type Graph interface {
	// Match streams all triples matching the pattern to fn. A nil term is
	// a wildcard. Iteration stops early if fn returns false. No ordering
	// is guaranteed.
	Match(sub, pred, obj *rdf.Term, fn func(rdf.Triple) bool)
	// Count returns the number of triples matching the pattern.
	Count(sub, pred, obj *rdf.Term) int
	// Contains reports whether at least one triple matches the pattern.
	Contains(sub, pred, obj *rdf.Term) bool
	// Len returns the total number of triples.
	Len() int
	// PredicateCount returns the number of triples whose predicate is p.
	// Both backends must report identical numbers for identical data.
	PredicateCount(p rdf.Term) int
	// Predicates returns all distinct predicates, sorted by Term.Compare.
	Predicates() []rdf.Term

	// Lookup returns the dictionary id of t; ok is false when the
	// dictionary does not hold t.
	Lookup(t rdf.Term) (id uint32, ok bool)
	// Term decodes a dictionary id; ok is false for an id the dictionary
	// never assigned.
	Term(id uint32) (t rdf.Term, ok bool)
	// MatchIDs is Match over ids: Wildcard matches any term, and an id the
	// dictionary never assigned matches nothing. Iteration stops early if
	// fn returns false.
	MatchIDs(sub, pred, obj uint32, fn func(sub, pred, obj uint32) bool)
	// CountIDs returns the number of triples MatchIDs would deliver,
	// answered from index bounds without visiting them.
	CountIDs(sub, pred, obj uint32) int
}

// Store implements Graph.
var _ Graph = (*Store)(nil)
