// Package store implements an in-memory, dictionary-encoded RDF triple store
// with three sorted permutation indexes (SPO, POS, OSP). It plays the role of
// the RDF engine behind each SPARQL endpoint (the paper used Jena Fuseki and
// Virtuoso; any conformant store exercises the same federation code paths).
//
// Terms are interned into a dictionary so triples are stored and compared as
// [3]uint32 identifiers. Pattern matching picks the permutation whose key
// prefix covers the bound positions of the pattern, so every match is one
// binary-searched range and every count is the width of that range.
package store

import (
	"slices"
	"sort"
	"sync"

	"lusail/internal/rdf"
)

type tripleID [3]uint32

// The permutation indexes both backends keep, named by the triple
// positions their keys hold, in order: an SPO key is (s, p, o), a POS key
// (p, o, s), an OSP key (o, s, p).
const (
	PermSPO = iota
	PermPOS
	PermOSP
)

// Store is a thread-safe in-memory triple store. The zero value is not
// usable; call New.
type Store struct {
	mu    sync.RWMutex
	terms []rdf.Term          // id -> term; append-only, entries never change
	ids   map[rdf.Term]uint32 // term -> id
	set   map[tripleID]struct{}

	// idx holds the triples of set as sorted keys of each permutation. A
	// rebuild allocates new slices rather than sorting in place, so a
	// reader that copied the slice headers under the lock can scan them
	// after releasing it.
	idx   [3][]tripleID
	dirty bool // true when idx lags behind set

	predCount map[uint32]int // predicate id -> triple count
}

// New returns an empty store.
func New() *Store {
	return &Store{
		ids:       make(map[rdf.Term]uint32),
		set:       make(map[tripleID]struct{}),
		predCount: make(map[uint32]int),
	}
}

// NewFromTriples returns a store loaded with the given triples.
func NewFromTriples(triples []rdf.Triple) *Store {
	s := New()
	s.AddAll(triples)
	return s
}

// Add inserts one triple. Duplicate inserts are ignored.
func (s *Store) Add(t rdf.Triple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(t)
}

// AddAll inserts a batch of triples.
func (s *Store) AddAll(triples []rdf.Triple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range triples {
		s.addLocked(t)
	}
}

func (s *Store) addLocked(t rdf.Triple) {
	id := tripleID{s.internLocked(t.S), s.internLocked(t.P), s.internLocked(t.O)}
	if _, ok := s.set[id]; ok {
		return
	}
	s.set[id] = struct{}{}
	s.predCount[id[1]]++
	s.dirty = true
}

func (s *Store) internLocked(t rdf.Term) uint32 {
	if id, ok := s.ids[t]; ok {
		return id
	}
	id := uint32(len(s.terms))
	s.terms = append(s.terms, t)
	s.ids[t] = id
	return id
}

// Len returns the number of triples in the store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.set)
}

// TermCount returns the number of distinct terms in the dictionary.
func (s *Store) TermCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.terms)
}

// PredicateCount returns the number of triples whose predicate is p.
// This is the per-predicate statistic RDF engines keep for optimization.
func (s *Store) PredicateCount(p rdf.Term) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.ids[p]
	if !ok {
		return 0
	}
	return s.predCount[id]
}

// Predicates returns all distinct predicates in the store.
func (s *Store) Predicates() []rdf.Term {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]rdf.Term, 0, len(s.predCount))
	for id := range s.predCount {
		out = append(out, s.terms[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Triples returns a snapshot of all triples, in SPO order.
func (s *Store) Triples() []rdf.Triple {
	var out []rdf.Triple
	s.Match(nil, nil, nil, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Lookup implements Graph.
func (s *Store) Lookup(t rdf.Term) (uint32, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.ids[t]
	return id, ok
}

// Term implements Graph.
func (s *Store) Term(id uint32) (rdf.Term, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int64(id) >= int64(len(s.terms)) {
		return rdf.Term{}, false
	}
	return s.terms[id], true
}

// KeyRange is the index-selection rule both backends share: it picks the
// permutation whose key prefix covers the bound positions of an id pattern
// and returns the inclusive key bounds of the matching range. Unbound key
// positions span [0, Wildcard], and no dictionary id equals Wildcard, so
// every pattern is one contiguous range.
func KeyRange(sub, pred, obj uint32) (perm int, lo, hi [3]uint32) {
	sb, pb, ob := sub != Wildcard, pred != Wildcard, obj != Wildcard
	switch {
	case sb && (pb || !ob):
		perm, lo = PermSPO, [3]uint32{sub, pred, obj}
	case sb: // s and o bound, p not
		perm, lo = PermOSP, [3]uint32{obj, sub, pred}
	case pb:
		perm, lo = PermPOS, [3]uint32{pred, obj, sub}
	case ob:
		perm, lo = PermOSP, [3]uint32{obj, sub, pred}
	default:
		perm, lo = PermSPO, [3]uint32{sub, pred, obj}
	}
	// The bound positions form a prefix of the key; the first Wildcard
	// ends it.
	hi = lo
	for i := range lo {
		if lo[i] == Wildcard {
			for j := i; j < 3; j++ {
				lo[j], hi[j] = 0, Wildcard
			}
			break
		}
	}
	return perm, lo, hi
}

// FromKey maps a permutation key back to (s, p, o).
func FromKey(perm int, k [3]uint32) (sub, pred, obj uint32) {
	switch perm {
	case PermSPO:
		return k[0], k[1], k[2]
	case PermPOS:
		return k[2], k[0], k[1]
	default: // PermOSP
		return k[1], k[2], k[0]
	}
}

func compareKeys(a, b tripleID) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// view returns the keys matching an id pattern, their permutation, and the
// dictionary, from one snapshot: the caller scans them with no lock held,
// so a callback may re-enter the store, and a concurrent write neither
// waits for the scan nor changes what it sees.
func (s *Store) view(sub, pred, obj uint32) (int, []tripleID, []rdf.Term) {
	perm, lo, hi := KeyRange(sub, pred, obj)
	s.mu.RLock()
	if s.dirty {
		s.mu.RUnlock()
		s.rebuild()
		s.mu.RLock()
	}
	keys, terms := s.idx[perm], s.terms
	s.mu.RUnlock()
	keys = keys[sort.Search(len(keys), func(i int) bool { return compareKeys(keys[i], lo) >= 0 }):]
	keys = keys[:sort.Search(len(keys), func(j int) bool { return compareKeys(keys[j], hi) > 0 })]
	return perm, keys, terms
}

// resolve maps a term pattern to an id pattern; ok is false when a bound
// term is not in the dictionary, so that nothing matches.
func (s *Store) resolve(sub, pred, obj *rdf.Term) (ids [3]uint32, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, t := range [3]*rdf.Term{sub, pred, obj} {
		ids[i] = Wildcard
		if t != nil {
			if ids[i], ok = s.ids[*t]; !ok {
				return ids, false
			}
		}
	}
	return ids, true
}

// rebuild replaces the permutation indexes with freshly sorted copies of
// the current triple set.
func (s *Store) rebuild() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		return
	}
	spo := make([]tripleID, 0, len(s.set))
	for t := range s.set {
		spo = append(spo, t)
	}
	slices.SortFunc(spo, compareKeys)
	pos := make([]tripleID, len(spo))
	osp := make([]tripleID, len(spo))
	for i, t := range spo {
		pos[i] = tripleID{t[1], t[2], t[0]}
		osp[i] = tripleID{t[2], t[0], t[1]}
	}
	slices.SortFunc(pos, compareKeys)
	slices.SortFunc(osp, compareKeys)
	s.idx = [3][]tripleID{spo, pos, osp}
	s.dirty = false
}

// MatchIDs implements Graph.
func (s *Store) MatchIDs(sub, pred, obj uint32, fn func(sub, pred, obj uint32) bool) {
	perm, keys, _ := s.view(sub, pred, obj)
	for _, k := range keys {
		if !fn(FromKey(perm, k)) {
			return
		}
	}
}

// CountIDs implements Graph.
func (s *Store) CountIDs(sub, pred, obj uint32) int {
	_, keys, _ := s.view(sub, pred, obj)
	return len(keys)
}

// Match streams all triples matching the pattern to fn. A nil term is a
// wildcard. Iteration stops early if fn returns false.
func (s *Store) Match(sub, pred, obj *rdf.Term, fn func(rdf.Triple) bool) {
	ids, ok := s.resolve(sub, pred, obj)
	if !ok {
		return
	}
	perm, keys, terms := s.view(ids[0], ids[1], ids[2])
	for _, k := range keys {
		a, b, c := FromKey(perm, k)
		if !fn(rdf.Triple{S: terms[a], P: terms[b], O: terms[c]}) {
			return
		}
	}
}

// Count returns the number of triples matching the pattern.
func (s *Store) Count(sub, pred, obj *rdf.Term) int {
	ids, ok := s.resolve(sub, pred, obj)
	if !ok {
		return 0
	}
	return s.CountIDs(ids[0], ids[1], ids[2])
}

// Contains reports whether at least one triple matches the pattern.
func (s *Store) Contains(sub, pred, obj *rdf.Term) bool {
	return s.Count(sub, pred, obj) > 0
}

// Remove deletes one triple. It reports whether the triple was present.
// The dictionary retains interned terms (ids are stable for the store's
// lifetime); indexes are rebuilt lazily on the next read.
func (s *Store) Remove(t rdf.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sid, ok := s.ids[t.S]
	if !ok {
		return false
	}
	pid, ok := s.ids[t.P]
	if !ok {
		return false
	}
	oid, ok := s.ids[t.O]
	if !ok {
		return false
	}
	id := tripleID{sid, pid, oid}
	if _, ok := s.set[id]; !ok {
		return false
	}
	delete(s.set, id)
	s.predCount[pid]--
	if s.predCount[pid] == 0 {
		delete(s.predCount, pid)
	}
	s.dirty = true
	return true
}

// RemoveMatching deletes every triple matching the pattern (nil = wildcard)
// and returns how many were removed.
func (s *Store) RemoveMatching(sub, pred, obj *rdf.Term) int {
	var victims []rdf.Triple
	s.Match(sub, pred, obj, func(t rdf.Triple) bool {
		victims = append(victims, t)
		return true
	})
	n := 0
	for _, t := range victims {
		if s.Remove(t) {
			n++
		}
	}
	return n
}
