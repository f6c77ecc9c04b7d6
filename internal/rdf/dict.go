package rdf

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// dictPage is the number of terms per storage page of a Dict: a growing
// dictionary copies page pointers, never terms.
const dictPage = 256

// Dict assigns dense uint32 ids to RDF terms, 0 to the zero Term (unbound).
// It is safe for concurrent use: the engine shares one among all the query
// executions it runs, and every goroutine that decodes their rows interns
// into it. It is keyed by a term's canonical text (AppendTerm); InternText
// aliases every other spelling it meets (Turtle shorthand, unneeded
// escapes, surrounding space) to that id, so rows join on ids exactly when
// their terms are equal. Lookups take the read lock once per row,
// insertions the write lock once per row, and Term no lock. A Dict only
// grows; Bytes reports the key text it holds, so an owner can retire it.
type Dict struct {
	mu    sync.RWMutex
	ids   map[string]uint32 // canonical text and alias spellings → id
	bytes atomic.Int64      // bytes of key text in ids

	pages atomic.Pointer[[]*[dictPage]Term] // id i is at page (i-1)/dictPage
	n     atomic.Uint32                     // terms stored
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: make(map[string]uint32)} }

// Len returns the number of distinct terms interned.
func (d *Dict) Len() int { return int(d.n.Load()) }

// Bytes returns the bytes of key text the dictionary holds: every term's
// canonical text and every alias spelling.
func (d *Dict) Bytes() int64 { return d.bytes.Load() }

// Term returns the term with the given id, which must come from d.
func (d *Dict) Term(id uint32) Term {
	if id == 0 {
		return Term{}
	}
	return (*d.pages.Load())[(id-1)/dictPage][(id-1)%dictPage]
}

// Terms decodes ids into out, grown as needed.
func (d *Dict) Terms(ids []uint32, out []Term) []Term {
	out = slices.Grow(out[:0], len(ids))[:len(ids)]
	for i, id := range ids {
		out[i] = d.Term(id)
	}
	return out
}

// InternRow writes the id of every term of row into ids, adding new terms.
// Like InternText it looks the row up under the read lock and takes the
// write lock only when a term is new.
func (d *Dict) InternRow(row []Term, ids []uint32) {
	var scratch [256]byte
	missed := false
	d.mu.RLock()
	for i, t := range row {
		if ids[i] = 0; !t.IsZero() {
			key := AppendTerm(scratch[:0], t)
			if ids[i] = d.ids[string(key)]; ids[i] == 0 {
				missed = true
			}
		}
	}
	d.mu.RUnlock()
	if !missed {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, t := range row {
		if ids[i] == 0 && !t.IsZero() {
			ids[i] = d.insertLocked(string(AppendTerm(scratch[:0], t)), t)
		}
	}
}

// InternText parses each cell as one term in the grammar of ParseTerm (an
// empty cell is unbound) and writes its id into ids. A cell text seen
// before costs one map lookup and no allocation; the cells that miss are
// copied into one string and parsed outside the lock. On a malformed cell
// it returns that cell's index and the parse error.
func (d *Dict) InternText(cells [][]byte, ids []uint32) (int, error) {
	missed := 0
	d.mu.RLock()
	for i, c := range cells {
		if ids[i] = 0; len(c) > 0 {
			if ids[i] = d.ids[string(c)]; ids[i] == 0 {
				missed += len(c)
			}
		}
	}
	d.mu.RUnlock()
	if missed == 0 {
		return -1, nil
	}
	var b strings.Builder
	b.Grow(missed)
	for i, c := range cells {
		if ids[i] == 0 {
			b.Write(c)
		}
	}
	type pending struct {
		cell      int
		text, key string
		term      Term
	}
	var buf [8]pending
	todo, rest := buf[:0], b.String()
	for i, c := range cells {
		if ids[i] != 0 || len(c) == 0 {
			continue
		}
		text := rest[:len(c)]
		rest = rest[len(c):]
		t, err := ParseTerm(text)
		if err != nil {
			return i, err
		}
		key := text
		if !canonical(text, t) {
			key = string(AppendTerm(nil, t))
		}
		if !t.IsZero() { // "<>", the empty IRI, is the unbound sentinel
			todo = append(todo, pending{i, text, key, t})
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range todo {
		ids[p.cell] = d.insertLocked(p.key, p.term)
		if _, ok := d.ids[p.text]; !ok {
			d.ids[p.text] = ids[p.cell]
			d.bytes.Add(int64(len(p.text)))
		}
	}
	return -1, nil
}

// insertLocked returns the id of the term whose canonical text is key,
// storing t under a new id when it is absent. d.mu must be held.
func (d *Dict) insertLocked(key string, t Term) uint32 {
	if id, ok := d.ids[key]; ok {
		return id
	}
	n := d.n.Load()
	var pages []*[dictPage]Term
	if p := d.pages.Load(); p != nil {
		pages = *p
	}
	if int(n/dictPage) == len(pages) {
		// Readers index below their snapshot's length: appending in place
		// past it is safe.
		grown := append(pages, new([dictPage]Term))
		d.pages.Store(&grown)
		pages = grown
	}
	pages[n/dictPage][n%dictPage] = t
	d.n.Store(n + 1)
	d.ids[key] = n + 1
	d.bytes.Add(int64(len(key)))
	return n + 1
}

// canonical reports whether text is AppendTerm's spelling of t, which
// ParseTerm read from it. An IRI without escapes or surrounding space, the
// common cell, needs no second rendering.
func canonical(text string, t Term) bool {
	if t.Kind == IRI && len(text) == len(t.Value)+2 {
		for i := 0; i < len(t.Value); i++ {
			if iriEscaped[t.Value[i]] {
				return false
			}
		}
		return true
	}
	var scratch [256]byte
	return string(AppendTerm(scratch[:0], t)) == text
}
