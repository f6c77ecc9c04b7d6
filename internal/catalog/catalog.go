// Package catalog implements Lusail's persistent endpoint catalog: one
// precomputed data summary per endpoint, persisted as JSON, refreshed in
// the background, and consulted by the engine as the probe-free first tier
// of a two-tier strategy.
//
// Lusail's baseline protocol pays a per-query round-trip tax: the first
// planning round asks every endpoint for the COUNT of every triple pattern,
// which answers both source selection and SAPE's statistics (Section 4.1
// of the paper). For small federated queries those probes dominate
// latency. The catalog amortizes them into an offline pass, in
// the spirit of SPLENDID's VoID statistics and HiBISCuS's authority
// sketches: each summary records the endpoint's distinct predicates,
// classes, VoID-style counts (triples, per-predicate triple/subject/object
// counts), subject/object URI-authority sketches, and probed capabilities
// (VALUES support, observed result-size caps).
//
// At query time:
//
//   - core's first planning round asks the catalog to Decide each endpoint
//     per pattern. Proven-irrelevant endpoints are pruned without traffic;
//     proven-relevant ones are included; only undecided endpoints (missing,
//     stale, or partial summaries) get a COUNT cell.
//   - The same round asks Cardinality for constant-predicate patterns and
//     only sends COUNT cells for relevant endpoints the catalog cannot
//     count.
//
// Decisions are conservative in exactly one direction: Irrelevant is only
// returned when the summary *proves* no triple can match (unknown
// predicate or class, disjoint URI authority), while Relevant may
// over-approximate (an authority sketch cannot distinguish two entities of
// one authority). An over-approximated source list costs extra work but
// never correctness — the engine's subqueries simply return no rows there —
// so query results are identical with the catalog on, off, or stale.
package catalog

import (
	"net/url"
	"sort"
	"strings"
	"time"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// PredicateStat is the VoID-style description of one predicate at one
// endpoint.
type PredicateStat struct {
	// Triples counts triples with this predicate.
	Triples int64 `json:"triples"`
	// Subjects counts distinct subjects of this predicate.
	Subjects int64 `json:"subjects"`
	// Objects counts distinct objects of this predicate.
	Objects int64 `json:"objects"`
	// LiteralObjects counts triples whose object is a literal.
	LiteralObjects int64 `json:"literal_objects,omitempty"`
	// SubjAuthorities is the sorted set of URI authorities occurring in
	// subject position (the HiBISCuS-style sketch used to prune
	// constant-subject patterns).
	SubjAuthorities []string `json:"subj_authorities,omitempty"`
	// ObjAuthorities is the sorted set of URI authorities occurring in
	// object position (IRIs only).
	ObjAuthorities []string `json:"obj_authorities,omitempty"`
}

// Capabilities records the limits the summary scan observed at the endpoint.
type Capabilities struct {
	// MaxResultRows is the largest result size the endpoint returned while
	// being summarized; when Truncated it is the observed server-side cap.
	MaxResultRows int64 `json:"max_result_rows,omitempty"`
	// Truncated reports that the summary scan returned fewer rows than the
	// endpoint's own COUNT, i.e. the server caps result sizes and the
	// summary is partial. Partial summaries never prune (Decide returns
	// TierUnknown instead of TierIrrelevant).
	Truncated bool `json:"truncated,omitempty"`
}

// Summary is the catalog's knowledge about one endpoint.
type Summary struct {
	// Endpoint is the endpoint's federation name.
	Endpoint string `json:"endpoint"`
	// BuiltAt is when the summary was (re)built; staleness is measured
	// against it.
	BuiltAt time.Time `json:"built_at"`
	// BuildDuration is how long the build took (preprocessing cost).
	BuildDuration time.Duration `json:"build_duration_ns"`
	// Triples is the endpoint's total triple count.
	Triples int64 `json:"triples"`
	// Predicates maps each distinct predicate IRI to its statistics.
	Predicates map[string]*PredicateStat `json:"predicates"`
	// Classes maps each class IRI to its instance count (rdf:type objects).
	Classes map[string]int64 `json:"classes,omitempty"`
	// Capabilities are the endpoint's probed capabilities.
	Capabilities Capabilities `json:"capabilities"`
}

// Fresh reports whether the summary is younger than ttl at the given time.
// A non-positive ttl means summaries never expire.
func (s *Summary) Fresh(now time.Time, ttl time.Duration) bool {
	if s == nil {
		return false
	}
	if ttl <= 0 {
		return true
	}
	return now.Sub(s.BuiltAt) < ttl
}

// Age returns how old the summary is.
func (s *Summary) Age(now time.Time) time.Duration { return now.Sub(s.BuiltAt) }

// Authority extracts the URI authority (scheme + host) the sketches hash
// on, falling back to the prefix before the last separator for URNs and
// scheme-less identifiers (the same rule HiBISCuS uses).
func Authority(iri string) string {
	u, err := url.Parse(iri)
	if err != nil || u.Host == "" {
		if i := strings.LastIndexAny(iri, "/#:"); i > 0 {
			return iri[:i]
		}
		return iri
	}
	return u.Scheme + "://" + u.Host
}

// hasAuthority reports membership in a sorted authority sketch.
func hasAuthority(sorted []string, auth string) bool {
	i := sort.SearchStrings(sorted, auth)
	return i < len(sorted) && sorted[i] == auth
}

// TierDecision classifies one endpoint for one triple pattern, as the
// probe-free catalog tier of source selection answers it.
type TierDecision int

const (
	// TierUnknown means the catalog cannot decide (missing, stale, or
	// partial summary); the endpoint must be probed.
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

// Decide classifies the endpoint for the pattern from the summary alone.
//
// TierIrrelevant is a proof (no triple at this endpoint can match the
// pattern), TierRelevant may over-approximate, and TierUnknown asks the
// caller to fall back to a probe. A truncated (partial) summary can still
// prove relevance — what it saw, the endpoint has — but never irrelevance.
func (s *Summary) Decide(tp sparql.TriplePattern) TierDecision {
	if s == nil {
		return TierUnknown
	}
	irrelevant := TierIrrelevant
	if s.Capabilities.Truncated {
		// The scan missed triples; absence from the summary proves nothing.
		irrelevant = TierUnknown
	}
	if s.Triples == 0 {
		return irrelevant
	}

	if !tp.P.IsVar() {
		pred := tp.P.Term.Value
		// rdf:type with a constant class is answered from the class list,
		// which is exact (not a sketch).
		if pred == rdf.RDFType && !tp.O.IsVar() && tp.O.Term.IsIRI() {
			if s.Classes[tp.O.Term.Value] > 0 {
				return s.decideSubject(tp, s.Predicates[pred])
			}
			return irrelevant
		}
		ps, ok := s.Predicates[pred]
		if !ok || ps.Triples == 0 {
			return irrelevant
		}
		if d := s.decideSubject(tp, ps); d != TierRelevant {
			return d
		}
		return s.decideObject(tp, ps, irrelevant)
	}

	// Variable predicate: decide from the union of all predicate sketches.
	if d := s.decideSubject(tp, nil); d != TierRelevant {
		return d
	}
	return s.decideObject(tp, nil, irrelevant)
}

// decideSubject applies the subject position of tp against ps (or, when ps
// is nil, against every predicate's sketch).
func (s *Summary) decideSubject(tp sparql.TriplePattern, ps *PredicateStat) TierDecision {
	if tp.S.IsVar() {
		return TierRelevant
	}
	if !tp.S.Term.IsIRI() {
		// Constant blank nodes have no cross-document identity to sketch.
		return TierUnknown
	}
	auth := Authority(tp.S.Term.Value)
	found := false
	if ps != nil {
		found = hasAuthority(ps.SubjAuthorities, auth)
	} else {
		for _, p := range s.Predicates {
			if hasAuthority(p.SubjAuthorities, auth) {
				found = true
				break
			}
		}
	}
	if found {
		return TierRelevant
	}
	if s.Capabilities.Truncated {
		return TierUnknown
	}
	return TierIrrelevant
}

// decideObject applies the object position of tp. irrelevant carries the
// truncation-adjusted "not found" verdict.
func (s *Summary) decideObject(tp sparql.TriplePattern, ps *PredicateStat, irrelevant TierDecision) TierDecision {
	if tp.O.IsVar() {
		return TierRelevant
	}
	o := tp.O.Term
	if o.IsIRI() {
		auth := Authority(o.Value)
		if ps != nil {
			if hasAuthority(ps.ObjAuthorities, auth) {
				return TierRelevant
			}
			return irrelevant
		}
		for _, p := range s.Predicates {
			if hasAuthority(p.ObjAuthorities, auth) {
				return TierRelevant
			}
		}
		return irrelevant
	}
	// Constant literal object: the sketch only records whether the
	// predicate has literal objects at all.
	if ps != nil {
		if ps.LiteralObjects > 0 {
			return TierRelevant
		}
		return irrelevant
	}
	for _, p := range s.Predicates {
		if p.LiteralObjects > 0 {
			return TierRelevant
		}
	}
	return irrelevant
}

// Cardinality estimates the number of solutions of the pattern at this
// endpoint, replacing a live SELECT COUNT probe. It only answers (ok=true)
// for constant-predicate patterns on a non-truncated summary — the cases
// the VoID-style counts describe exactly or nearly so; everything else
// falls back to a probe.
func (s *Summary) Cardinality(tp sparql.TriplePattern) (est float64, ok bool) {
	if s == nil || s.Capabilities.Truncated || tp.P.IsVar() {
		return 0, false
	}
	pred := tp.P.Term.Value
	if pred == rdf.RDFType && !tp.O.IsVar() {
		if !tp.O.Term.IsIRI() {
			return 0, false
		}
		n := float64(s.Classes[tp.O.Term.Value])
		if !tp.S.IsVar() {
			// (const, rdf:type, const): at most one such triple.
			if n > 1 {
				n = 1
			}
		}
		return n, true
	}
	ps := s.Predicates[pred]
	if ps == nil {
		return 0, true // predicate absent: exactly zero solutions
	}
	switch {
	case tp.S.IsVar() && tp.O.IsVar():
		// Exact for (?s p ?o); an upper bound for the self-loop (?x p ?x).
		return float64(ps.Triples), true
	case !tp.S.IsVar() && tp.O.IsVar():
		// Average out-degree of a subject under this predicate.
		if ps.Subjects == 0 {
			return 0, true
		}
		return float64(ps.Triples) / float64(ps.Subjects), true
	case tp.S.IsVar() && !tp.O.IsVar():
		// Average in-degree of an object under this predicate.
		if ps.Objects == 0 {
			return 0, true
		}
		return float64(ps.Triples) / float64(ps.Objects), true
	default:
		// Fully constant: zero or one solution.
		return 1, true
	}
}
