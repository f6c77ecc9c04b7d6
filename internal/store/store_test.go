package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lusail/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func tr(s, p, o string) rdf.Triple {
	return rdf.NewTriple(iri(s), iri(p), iri(o))
}

func TestAddAndLen(t *testing.T) {
	s := New()
	s.Add(tr("a", "p", "b"))
	s.Add(tr("a", "p", "b")) // duplicate
	s.Add(tr("a", "p", "c"))
	if got := s.Len(); got != 2 {
		t.Errorf("Len() = %d, want 2", got)
	}
	if got := s.TermCount(); got != 4 { // a, p, b, c
		t.Errorf("TermCount() = %d, want 4", got)
	}
}

func TestMatchPatterns(t *testing.T) {
	s := NewFromTriples([]rdf.Triple{
		tr("a", "p", "b"),
		tr("a", "p", "c"),
		tr("a", "q", "b"),
		tr("d", "p", "b"),
		tr("d", "q", "e"),
	})
	sA, pP, oB := iri("a"), iri("p"), iri("b")
	tests := []struct {
		name    string
		s, p, o *rdf.Term
		want    int
	}{
		{"all wildcards", nil, nil, nil, 5},
		{"s bound", &sA, nil, nil, 3},
		{"p bound", nil, &pP, nil, 3},
		{"o bound", nil, nil, &oB, 3},
		{"sp bound", &sA, &pP, nil, 2},
		{"so bound", &sA, nil, &oB, 2},
		{"po bound", nil, &pP, &oB, 2},
		{"spo bound", &sA, &pP, &oB, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := s.Count(tc.s, tc.p, tc.o); got != tc.want {
				t.Errorf("Count = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestMatchUnknownTerm(t *testing.T) {
	s := NewFromTriples([]rdf.Triple{tr("a", "p", "b")})
	unknown := iri("nope")
	if s.Count(&unknown, nil, nil) != 0 {
		t.Error("unknown subject should match nothing")
	}
	if s.Contains(nil, &unknown, nil) {
		t.Error("unknown predicate should match nothing")
	}
}

func TestMatchEarlyStop(t *testing.T) {
	s := NewFromTriples([]rdf.Triple{tr("a", "p", "b"), tr("a", "p", "c"), tr("a", "p", "d")})
	n := 0
	s.Match(nil, nil, nil, func(rdf.Triple) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d triples, want 1", n)
	}
}

func TestPredicateStats(t *testing.T) {
	s := NewFromTriples([]rdf.Triple{
		tr("a", "p", "b"), tr("c", "p", "d"), tr("a", "q", "b"),
	})
	if got := s.PredicateCount(iri("p")); got != 2 {
		t.Errorf("PredicateCount(p) = %d, want 2", got)
	}
	if got := s.PredicateCount(iri("zzz")); got != 0 {
		t.Errorf("PredicateCount(zzz) = %d, want 0", got)
	}
	preds := s.Predicates()
	if len(preds) != 2 {
		t.Errorf("Predicates() = %v, want 2 entries", preds)
	}
}

func TestAddAfterQuery(t *testing.T) {
	s := New()
	s.Add(tr("a", "p", "b"))
	if s.Count(nil, nil, nil) != 1 {
		t.Fatal("initial count wrong")
	}
	s.Add(tr("c", "p", "d")) // mutation after a query must rebuild indexes
	pP := iri("p")
	if got := s.Count(nil, &pP, nil); got != 2 {
		t.Errorf("Count after second add = %d, want 2", got)
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add(tr(fmt.Sprintf("s%d-%d", w, i), "p", "o"))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := iri("p")
				s.Count(nil, &p, nil)
			}
		}()
	}
	wg.Wait()
	if got := s.Len(); got != 800 {
		t.Errorf("Len() = %d, want 800", got)
	}
}

// TestReentrantMatchWithWriter is the evaluator's access pattern under a
// concurrent writer: a Match callback matches again while an Add is
// waiting. Scanning under the read lock deadlocked here, because a waiting
// writer blocks new readers, the nested one included.
func TestReentrantMatchWithWriter(t *testing.T) {
	s := NewFromTriples([]rdf.Triple{tr("a", "p", "b"), tr("b", "p", "c")})
	added := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Match(nil, nil, nil, func(rdf.Triple) bool {
			go func() {
				s.Add(tr("c", "p", "d"))
				close(added)
			}()
			// Give the writer time to queue on the lock if the scan
			// still held it; with a snapshot scan the Add completes.
			select {
			case <-added:
			case <-time.After(100 * time.Millisecond):
			}
			s.Contains(nil, nil, nil)
			return false
		})
		<-added
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested Match with a waiting writer deadlocked")
	}
	if s.Len() != 3 {
		t.Fatalf("Len() = %d after the concurrent Add, want 3", s.Len())
	}
}

// Property: every index permutation agrees — any pattern shape returns the
// same multiset of triples as filtering a full scan.
func TestIndexConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var triples []rdf.Triple
		for i := 0; i < 60; i++ {
			triples = append(triples, tr(
				fmt.Sprintf("s%d", rng.Intn(8)),
				fmt.Sprintf("p%d", rng.Intn(4)),
				fmt.Sprintf("o%d", rng.Intn(8)),
			))
		}
		s := NewFromTriples(triples)
		all := s.Triples()

		for trial := 0; trial < 20; trial++ {
			var sp, pp, op *rdf.Term
			if rng.Intn(2) == 0 {
				v := iri(fmt.Sprintf("s%d", rng.Intn(8)))
				sp = &v
			}
			if rng.Intn(2) == 0 {
				v := iri(fmt.Sprintf("p%d", rng.Intn(4)))
				pp = &v
			}
			if rng.Intn(2) == 0 {
				v := iri(fmt.Sprintf("o%d", rng.Intn(8)))
				op = &v
			}
			var got []rdf.Triple
			s.Match(sp, pp, op, func(x rdf.Triple) bool { got = append(got, x); return true })
			var want []rdf.Triple
			for _, x := range all {
				if (sp == nil || x.S == *sp) && (pp == nil || x.P == *pp) && (op == nil || x.O == *op) {
					want = append(want, x)
				}
			}
			sortTriples(got)
			sortTriples(want)
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func sortTriples(ts []rdf.Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

func TestStoreMixedTermKinds(t *testing.T) {
	s := NewFromTriples([]rdf.Triple{
		{S: rdf.NewBlank("b0"), P: iri("p"), O: rdf.NewLiteral("x")},
		{S: iri("a"), P: iri("p"), O: rdf.NewLangLiteral("x", "en")},
		{S: iri("a"), P: iri("p"), O: rdf.NewTypedLiteral("x", rdf.XSDString)},
	})
	// The three "x" objects are distinct terms.
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	lit := rdf.NewLiteral("x")
	if got := s.Count(nil, nil, &lit); got != 1 {
		t.Errorf("plain literal count = %d, want 1", got)
	}
	blank := rdf.NewBlank("b0")
	if got := s.Count(&blank, nil, nil); got != 1 {
		t.Errorf("blank subject count = %d, want 1", got)
	}
}

func TestTriplesSnapshotSorted(t *testing.T) {
	s := NewFromTriples([]rdf.Triple{tr("c", "p", "x"), tr("a", "p", "x"), tr("b", "p", "x")})
	ts := s.Triples()
	if len(ts) != 3 {
		t.Fatalf("len = %d", len(ts))
	}
	// SPO order follows dictionary ids (insertion), not term order; just
	// verify the snapshot is complete and stable.
	again := s.Triples()
	if !reflect.DeepEqual(ts, again) {
		t.Error("snapshot not stable")
	}
}

func TestRemove(t *testing.T) {
	s := NewFromTriples([]rdf.Triple{tr("a", "p", "b"), tr("a", "p", "c"), tr("d", "q", "e")})
	if !s.Remove(tr("a", "p", "b")) {
		t.Fatal("Remove returned false for present triple")
	}
	if s.Remove(tr("a", "p", "b")) {
		t.Error("second Remove should return false")
	}
	if s.Remove(tr("zz", "p", "b")) {
		t.Error("Remove of unknown subject should return false")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	pP := iri("p")
	if got := s.Count(nil, &pP, nil); got != 1 {
		t.Errorf("Count(p) after remove = %d, want 1", got)
	}
	if got := s.PredicateCount(iri("p")); got != 1 {
		t.Errorf("PredicateCount(p) = %d", got)
	}
}

func TestRemoveMatching(t *testing.T) {
	s := NewFromTriples([]rdf.Triple{tr("a", "p", "b"), tr("a", "p", "c"), tr("a", "q", "b"), tr("d", "p", "b")})
	sA := iri("a")
	if n := s.RemoveMatching(&sA, nil, nil); n != 3 {
		t.Errorf("RemoveMatching = %d, want 3", n)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.PredicateCount(iri("q")) != 0 {
		t.Error("q should have no triples left")
	}
}

func TestRemoveInvalidatesQueries(t *testing.T) {
	s := NewFromTriples([]rdf.Triple{tr("a", "p", "b")})
	s.Count(nil, nil, nil) // build indexes
	s.Remove(tr("a", "p", "b"))
	if s.Count(nil, nil, nil) != 0 {
		t.Error("removed triple still visible")
	}
}
