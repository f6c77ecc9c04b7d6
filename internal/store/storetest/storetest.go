// Package storetest is a conformance suite for store.Graph backends. Both
// the in-memory store and the disk-backed store must pass it, which is
// what makes the two interchangeable behind an endpoint: identical match
// semantics, identical statistics, identical results under concurrency.
package storetest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/store"
)

// Factory builds a Graph holding exactly the given triples (after
// deduplication). The returned cleanup may be nil.
type Factory func(t *testing.T, triples []rdf.Triple) store.Graph

// Run executes the full conformance suite against the backend.
func Run(t *testing.T, factory Factory) {
	t.Run("MatchAllPrefixes", func(t *testing.T) { testMatchAllPrefixes(t, factory) })
	t.Run("DuplicateInserts", func(t *testing.T) { testDuplicateInserts(t, factory) })
	t.Run("TermRoundTrip", func(t *testing.T) { testTermRoundTrip(t, factory) })
	t.Run("PredicateStats", func(t *testing.T) { testPredicateStats(t, factory) })
	t.Run("EarlyStop", func(t *testing.T) { testEarlyStop(t, factory) })
	t.Run("Empty", func(t *testing.T) { testEmpty(t, factory) })
	t.Run("ConcurrentReaders", func(t *testing.T) { testConcurrentReaders(t, factory) })
	t.Run("RandomizedVsReference", func(t *testing.T) { testRandomizedVsReference(t, factory) })
	t.Run("IDsAgreeWithTerms", func(t *testing.T) { testIDsAgreeWithTerms(t, factory) })
	t.Run("IDRoundTrip", func(t *testing.T) { testIDRoundTrip(t, factory) })
	t.Run("SeekWithinBlocks", func(t *testing.T) { testSeekWithinBlocks(t, factory) })
}

func iri(s string) rdf.Term { return rdf.NewIRI("http://conformance.example/" + s) }

func tr(s, p, o string) rdf.Triple { return rdf.NewTriple(iri(s), iri(p), iri(o)) }

// fixture is a small dataset with shared subjects, predicates, and objects
// so every bind pattern has both hits and misses.
func fixture() []rdf.Triple {
	return []rdf.Triple{
		tr("a", "p", "b"),
		tr("a", "p", "c"),
		tr("a", "q", "b"),
		tr("d", "p", "b"),
		tr("d", "q", "e"),
		tr("e", "r", "a"),
		tr("b", "p", "a"),
	}
}

// match collects sorted results from g.Match.
func match(g store.Graph, s, p, o *rdf.Term) []rdf.Triple {
	var out []rdf.Triple
	g.Match(s, p, o, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	sortTriples(out)
	return out
}

func sortTriples(ts []rdf.Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if c := a.S.Compare(b.S); c != 0 {
			return c < 0
		}
		if c := a.P.Compare(b.P); c != 0 {
			return c < 0
		}
		return a.O.Compare(b.O) < 0
	})
}

// reference filters triples naively — the semantics every backend must
// reproduce exactly.
func reference(triples []rdf.Triple, s, p, o *rdf.Term) []rdf.Triple {
	seen := make(map[rdf.Triple]bool)
	var out []rdf.Triple
	for _, t := range triples {
		if seen[t] {
			continue
		}
		seen[t] = true
		if (s == nil || t.S == *s) && (p == nil || t.P == *p) && (o == nil || t.O == *o) {
			out = append(out, t)
		}
	}
	sortTriples(out)
	return out
}

// patterns enumerates all 8 bound/unbound combinations over a triple.
func patterns(t rdf.Triple) [][3]*rdf.Term {
	s, p, o := t.S, t.P, t.O
	var out [][3]*rdf.Term
	for mask := 0; mask < 8; mask++ {
		var pat [3]*rdf.Term
		if mask&4 != 0 {
			pat[0] = &s
		}
		if mask&2 != 0 {
			pat[1] = &p
		}
		if mask&1 != 0 {
			pat[2] = &o
		}
		out = append(out, pat)
	}
	return out
}

func testMatchAllPrefixes(t *testing.T, factory Factory) {
	data := fixture()
	g := factory(t, data)
	// Probe every bind pattern derived from every triple in the store,
	// plus patterns with terms that are absent.
	probes := append(data,
		tr("a", "p", "zzz-missing"),
		tr("zzz-missing", "p", "b"),
		tr("a", "zzz-missing", "b"),
	)
	for _, probe := range probes {
		for _, pat := range patterns(probe) {
			got := match(g, pat[0], pat[1], pat[2])
			want := reference(data, pat[0], pat[1], pat[2])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Match(%v) = %v, want %v", pat, got, want)
			}
			if c := g.Count(pat[0], pat[1], pat[2]); c != len(want) {
				t.Fatalf("Count(%v) = %d, want %d", pat, c, len(want))
			}
			if has := g.Contains(pat[0], pat[1], pat[2]); has != (len(want) > 0) {
				t.Fatalf("Contains(%v) = %v, want %v", pat, has, len(want) > 0)
			}
		}
	}
}

func testDuplicateInserts(t *testing.T, factory Factory) {
	data := append(fixture(), fixture()...) // every triple twice
	data = append(data, tr("a", "p", "b"))  // and one thrice
	g := factory(t, data)
	if got, want := g.Len(), len(fixture()); got != want {
		t.Fatalf("Len() = %d after duplicate inserts, want %d", got, want)
	}
	got := match(g, nil, nil, nil)
	want := reference(fixture(), nil, nil, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("full scan after duplicates = %v, want %v", got, want)
	}
}

func testTermRoundTrip(t *testing.T, factory Factory) {
	// Every term kind, including empty strings, language tags, datatypes,
	// and multi-byte runes, must survive storage byte-for-byte.
	terms := []rdf.Term{
		rdf.NewIRI("http://ex/α/ünïcode"),
		rdf.NewBlank("b0"),
		rdf.NewLiteral(""),
		rdf.NewLiteral("plain \"quoted\" \n newline"),
		rdf.NewLangLiteral("bonjour", "fr"),
		rdf.NewLangLiteral("hello", "en-US"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewTypedLiteral("42", rdf.XSDDecimal), // same lexical, other type
		rdf.NewInteger(-7),
		rdf.NewDouble(2.5),
	}
	p := iri("value")
	var data []rdf.Triple
	for i, term := range terms {
		data = append(data, rdf.NewTriple(iri(fmt.Sprintf("s%02d", i)), p, term))
	}
	g := factory(t, data)
	for i, term := range terms {
		s := iri(fmt.Sprintf("s%02d", i))
		got := match(g, &s, &p, nil)
		if len(got) != 1 || got[0].O != term {
			t.Fatalf("term %+v did not round-trip: got %v", term, got)
		}
		// And as a bound object.
		o := term
		if !g.Contains(&s, &p, &o) {
			t.Fatalf("Contains with bound object %+v = false", term)
		}
	}
}

func testPredicateStats(t *testing.T, factory Factory) {
	data := fixture()
	g := factory(t, data)
	counts := map[rdf.Term]int{}
	for _, tp := range reference(data, nil, nil, nil) {
		counts[tp.P]++
	}
	for p, want := range counts {
		if got := g.PredicateCount(p); got != want {
			t.Fatalf("PredicateCount(%v) = %d, want %d", p, got, want)
		}
	}
	if got := g.PredicateCount(iri("zzz-missing")); got != 0 {
		t.Fatalf("PredicateCount(missing) = %d, want 0", got)
	}
	var want []rdf.Term
	for p := range counts {
		want = append(want, p)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
	got := g.Predicates()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Predicates() = %v, want %v", got, want)
	}
}

func testEarlyStop(t *testing.T, factory Factory) {
	g := factory(t, fixture())
	n := 0
	g.Match(nil, nil, nil, func(rdf.Triple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("Match visited %d triples after early stop, want 3", n)
	}
}

func testEmpty(t *testing.T, factory Factory) {
	g := factory(t, nil)
	if g.Len() != 0 {
		t.Fatalf("empty store Len() = %d", g.Len())
	}
	if got := match(g, nil, nil, nil); len(got) != 0 {
		t.Fatalf("empty store matched %v", got)
	}
	s := iri("a")
	if g.Contains(&s, nil, nil) {
		t.Fatal("empty store Contains() = true")
	}
	if ps := g.Predicates(); len(ps) != 0 {
		t.Fatalf("empty store Predicates() = %v", ps)
	}
}

func testConcurrentReaders(t *testing.T, factory Factory) {
	data := randomTriples(rand.New(rand.NewSource(7)), 2000, 50, 5, 80)
	g := factory(t, data)
	want := reference(data, nil, nil, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				probe := want[rng.Intn(len(want))]
				pats := patterns(probe)
				pat := pats[rng.Intn(len(pats))]
				got := match(g, pat[0], pat[1], pat[2])
				exp := reference(data, pat[0], pat[1], pat[2])
				if !reflect.DeepEqual(got, exp) {
					t.Errorf("concurrent Match(%v) diverged", pat)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func randomTriples(rng *rand.Rand, n, subjects, preds, objects int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rdf.NewTriple(
			iri(fmt.Sprintf("s%d", rng.Intn(subjects))),
			iri(fmt.Sprintf("p%d", rng.Intn(preds))),
			iri(fmt.Sprintf("o%d", rng.Intn(objects))),
		))
	}
	return out
}

func testRandomizedVsReference(t *testing.T, factory Factory) {
	rng := rand.New(rand.NewSource(42))
	data := randomTriples(rng, 5000, 120, 8, 150)
	g := factory(t, data)
	want := reference(data, nil, nil, nil)
	if g.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d distinct triples", g.Len(), len(want))
	}
	for i := 0; i < 200; i++ {
		probe := want[rng.Intn(len(want))]
		pats := patterns(probe)
		pat := pats[rng.Intn(len(pats))]
		got := match(g, pat[0], pat[1], pat[2])
		exp := reference(data, pat[0], pat[1], pat[2])
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("randomized Match(%v): got %d rows, want %d", pat, len(got), len(exp))
		}
	}
}

// unassigned is an id below 1<<31 that no test dictionary reaches.
const unassigned = 1<<31 - 1

// idPattern resolves a term pattern to ids the way an evaluator does: nil
// is store.Wildcard, a term the dictionary lacks an unassigned id.
func idPattern(g store.Graph, pat [3]*rdf.Term) [3]uint32 {
	var ids [3]uint32
	for i, t := range pat {
		ids[i] = store.Wildcard
		if t != nil {
			ids[i] = unassigned
			if id, ok := g.Lookup(*t); ok {
				ids[i] = id
			}
		}
	}
	return ids
}

// matchIDs collects sorted, decoded results from g.MatchIDs.
func matchIDs(t *testing.T, g store.Graph, ids [3]uint32) []rdf.Triple {
	t.Helper()
	var out []rdf.Triple
	g.MatchIDs(ids[0], ids[1], ids[2], func(s, p, o uint32) bool {
		var tr rdf.Triple
		var ok [3]bool
		tr.S, ok[0] = g.Term(s)
		tr.P, ok[1] = g.Term(p)
		tr.O, ok[2] = g.Term(o)
		if ok != [3]bool{true, true, true} {
			t.Fatalf("MatchIDs delivered undecodable ids (%d, %d, %d)", s, p, o)
		}
		out = append(out, tr)
		return true
	})
	sortTriples(out)
	return out
}

// checkIDs compares MatchIDs and CountIDs with the reference for every
// bind mask of every probe.
func checkIDs(t *testing.T, g store.Graph, data, probes []rdf.Triple) {
	t.Helper()
	for _, probe := range probes {
		for _, pat := range patterns(probe) {
			want := reference(data, pat[0], pat[1], pat[2])
			ids := idPattern(g, pat)
			if got := matchIDs(t, g, ids); !reflect.DeepEqual(got, want) {
				t.Fatalf("MatchIDs(%v) = %v, want %v", pat, got, want)
			}
			if c := g.CountIDs(ids[0], ids[1], ids[2]); c != len(want) {
				t.Fatalf("CountIDs(%v) = %d, want %d", pat, c, len(want))
			}
		}
	}
}

func testIDsAgreeWithTerms(t *testing.T, factory Factory) {
	data := fixture()
	g := factory(t, data)
	checkIDs(t, g, data, append(data,
		tr("a", "p", "zzz-missing"),
		tr("zzz-missing", "p", "b"),
		tr("a", "zzz-missing", "b"),
	))
	n := 0
	g.MatchIDs(store.Wildcard, store.Wildcard, store.Wildcard, func(uint32, uint32, uint32) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("MatchIDs visited %d triples after early stop, want 2", n)
	}
}

func testIDRoundTrip(t *testing.T, factory Factory) {
	terms := []rdf.Term{
		iri("x"),
		rdf.NewIRI("http://ex/α/ünïcode"),
		rdf.NewBlank("b0"),
		rdf.NewLiteral("plain"),
		rdf.NewLangLiteral("bonjour", "fr"),
		rdf.NewLangLiteral("bonjour", "fr-CA"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewTypedLiteral("42", rdf.XSDDecimal),
	}
	p := iri("value")
	var data []rdf.Triple
	for i, term := range terms {
		data = append(data, rdf.NewTriple(iri(fmt.Sprintf("s%02d", i)), p, term))
	}
	g := factory(t, data)
	seen := map[uint32]rdf.Term{}
	for _, term := range append(terms, p) {
		id, ok := g.Lookup(term)
		if !ok {
			t.Fatalf("Lookup(%v) found nothing", term)
		}
		if other, dup := seen[id]; dup {
			t.Fatalf("Lookup gave %v and %v the same id %d", other, term, id)
		}
		seen[id] = term
		if id >= 1<<31 {
			t.Fatalf("Lookup(%v) = %d, not below 1<<31", term, id)
		}
		if back, ok := g.Term(id); !ok || back != term {
			t.Fatalf("Term(Lookup(%v)) = %v, %v", term, back, ok)
		}
	}
	for _, absent := range []rdf.Term{iri("zzz-missing"), rdf.NewLangLiteral("bonjour", "de"), rdf.NewTypedLiteral("42", rdf.XSDDouble)} {
		if id, ok := g.Lookup(absent); ok {
			t.Fatalf("Lookup(%v) = %d for a term the graph lacks", absent, id)
		}
	}
	for _, id := range []uint32{unassigned, store.Wildcard} {
		if term, ok := g.Term(id); ok {
			t.Fatalf("Term(%d) = %v for an id never assigned", id, term)
		}
	}
}

// testSeekWithinBlocks uses subjects with 1 to 12 triples each, so with
// the conformance factory's 8-triple disk blocks ranges of every
// permutation start in the middle of a block and run across block
// boundaries.
func testSeekWithinBlocks(t *testing.T, factory Factory) {
	var data []rdf.Triple
	for s := 0; s < 12; s++ {
		for k := 0; k <= s; k++ {
			data = append(data, tr(fmt.Sprintf("s%02d", s), fmt.Sprintf("p%d", k%3), fmt.Sprintf("o%02d", (s+k)%7)))
		}
	}
	g := factory(t, data)
	checkIDs(t, g, data, data)
	for _, probe := range data {
		for _, pat := range patterns(probe) {
			if got, want := match(g, pat[0], pat[1], pat[2]), reference(data, pat[0], pat[1], pat[2]); !reflect.DeepEqual(got, want) {
				t.Fatalf("Match(%v) = %v, want %v", pat, got, want)
			}
		}
	}
}
