package rdf

import (
	"fmt"
	"sync"
	"testing"
)

// intern returns the id of one term.
func intern(d *Dict, t Term) uint32 {
	ids := []uint32{0}
	d.InternRow([]Term{t}, ids)
	return ids[0]
}

// Eight goroutines intern overlapping rows, both as text and as terms,
// while reading terms back; every term must end up with exactly one id,
// and every id must name its term. Run under -race.
func TestDictConcurrentIntern(t *testing.T) {
	const workers, rows, width, domain = 8, 400, 4, 300
	d := NewDict()
	got := make([][]uint32, workers) // got[w][k]: id of term k as worker w saw it
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([]uint32, domain)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells := make([][]byte, width)
			terms := make([]Term, width)
			ids := make([]uint32, width)
			for r := range rows {
				keys := make([]int, width)
				for c := range width {
					k := (r*7 + c*13 + w*5) % domain
					keys[c] = k
					terms[c] = NewIRI(fmt.Sprintf("http://ex.org/t%d", k))
					cells[c] = []byte("<" + terms[c].Value + ">")
				}
				if r%2 == 0 {
					if i, err := d.InternText(cells, ids); err != nil {
						t.Errorf("cell %d: %v", i, err)
						return
					}
				} else {
					d.InternRow(terms, ids)
				}
				for c, id := range ids {
					if d.Term(id) != terms[c] {
						t.Errorf("id %d names %v, want %v", id, d.Term(id), terms[c])
					}
					if prev := got[w][keys[c]]; prev != 0 && prev != id {
						t.Errorf("%v got ids %d and %d", terms[c], prev, id)
					}
					got[w][keys[c]] = id
				}
			}
		}()
	}
	wg.Wait()
	seen := map[uint32]int{}
	for k := range domain {
		var id uint32
		for w := range workers {
			switch g := got[w][k]; {
			case g == 0:
			case id == 0:
				id = g
			case g != id:
				t.Fatalf("term %d has ids %d and %d", k, id, g)
			}
		}
		if id == 0 {
			continue
		}
		if other, dup := seen[id]; dup {
			t.Fatalf("terms %d and %d share id %d", other, k, id)
		}
		seen[id] = k
	}
	if d.Len() != len(seen) {
		t.Fatalf("Len %d, want %d distinct terms", d.Len(), len(seen))
	}
}

// Every spelling of a term maps to the id of its canonical text: Turtle
// shorthand and the explicit typed literal, an escaped spelling and its
// raw twin, whether they arrive as text or as terms. Bytes counts the
// canonical text once and each other spelling once.
func TestDictInternCanonical(t *testing.T) {
	for _, spellings := range [][]string{
		{`1`, `"1"^^<http://www.w3.org/2001/XMLSchema#integer>`, `"1"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{`true`, `"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
		{`<http://ex.org/caf\u00E9>`, `<http://ex.org/café>`, ` <http://ex.org/café> `},
		{`"a\u0009b"`, `"a\tb"`},
		{`"x"@en`, `"x"@en`},
	} {
		d := NewDict()
		var first uint32
		for _, s := range spellings {
			ids := make([]uint32, 1)
			if _, err := d.InternText([][]byte{[]byte(s)}, ids); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			term, err := ParseTerm(s)
			if err != nil {
				t.Fatal(err)
			}
			if byTerm := intern(d, term); byTerm != ids[0] {
				t.Errorf("%s: text id %d, term id %d", s, ids[0], byTerm)
			}
			if first == 0 {
				first = ids[0]
			}
			if ids[0] != first {
				t.Errorf("%s: id %d, want %d (the id of %s)", s, ids[0], first, spellings[0])
			}
			if d.Term(ids[0]) != term {
				t.Errorf("%s: id names %v, want %v", s, d.Term(ids[0]), term)
			}
		}
		if d.Len() != 1 {
			t.Errorf("%v: %d terms, want 1", spellings, d.Len())
		}
		canon := string(AppendTerm(nil, d.Term(first)))
		keys := map[string]bool{canon: true}
		want := int64(len(canon))
		for _, s := range spellings {
			if !keys[s] {
				keys[s] = true
				want += int64(len(s))
			}
		}
		if d.Bytes() != want {
			t.Errorf("%v: %d bytes of keys, want %d", spellings, d.Bytes(), want)
		}
	}
}

// Empty cells and the empty IRI are unbound; a malformed cell is reported
// by index and interns nothing.
func TestDictInternUnboundAndErrors(t *testing.T) {
	d := NewDict()
	ids := make([]uint32, 3)
	if _, err := d.InternText([][]byte{nil, []byte("<>"), []byte("<http://a>")}, ids); err != nil {
		t.Fatal(err)
	}
	if ids[0] != 0 || ids[1] != 0 || ids[2] == 0 || intern(d, Term{}) != 0 {
		t.Fatalf("ids %v", ids)
	}
	if i, err := d.InternText([][]byte{[]byte("<http://b>"), []byte(`"open`)}, ids[:2]); err == nil || i != 1 {
		t.Fatalf("malformed cell: index %d, error %v", i, err)
	}
	if d.Len() != 1 {
		t.Fatalf("%d terms after a failed row, want 1", d.Len())
	}
}

// BenchmarkDictInternText interns 8192 LUBM-shaped rows of three IRIs
// into a fresh dictionary: the first cell of each row is new, the other
// two mostly repeat terms already interned.
func BenchmarkDictInternText(b *testing.B) {
	const rows = 8192
	lines := make([][][]byte, rows)
	for i := range lines {
		lines[i] = [][]byte{
			[]byte(fmt.Sprintf("<http://www.Department%d.University0.edu/GraduateStudent%d>", i%15, i)),
			[]byte(fmt.Sprintf("<http://www.Department%d.University0.edu/AssociateProfessor%d>", i%15, i%40)),
			[]byte(fmt.Sprintf("<http://www.Department%d.University0.edu/GraduateCourse%d>", i%15, i%60)),
		}
	}
	ids := make([]uint32, 3)
	b.ReportAllocs()
	for range b.N {
		d := NewDict()
		for _, cells := range lines {
			if _, err := d.InternText(cells, ids); err != nil {
				b.Fatal(err)
			}
		}
	}
}
