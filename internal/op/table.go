package op

import (
	"math/bits"
	"slices"
)

// Shared is how the rows of two join sides meet: the variables they
// share, their columns on either side, and the output's variables — the
// left side's, then the right side's others. With Table it states the one
// join rule of both tiers, SPARQL's compatibility: two rows join when
// every shared variable bound on both sides has the same id (Matches),
// and the combined row takes each shared variable's bound value
// (Combine). The engine's hash, left, keyed and bound joins and the
// endpoint evaluator's VALUES and sub-select joins all join on them.
type Shared struct {
	Vars        []string // the output's variables
	Names       []string // the shared variables, in the right side's order
	Left, Right []int    // the shared variables' columns on each side
	extra       []int    // right columns appended after the left row
}

// Share returns how rows over left and right meet.
func Share(left, right []string) Shared {
	sh := Shared{Vars: append([]string(nil), left...)}
	for j, v := range right {
		if i := slices.Index(left, v); i >= 0 {
			sh.Names, sh.Left, sh.Right = append(sh.Names, v), append(sh.Left, i), append(sh.Right, j)
		} else {
			sh.Vars, sh.extra = append(sh.Vars, v), append(sh.extra, j)
		}
	}
	return sh
}

// Combine writes the join of a left and a right row into out, a zeroed
// row over Vars, and returns it: the left row, any shared variable it
// leaves unbound taking the right row's value, then the right row's other
// columns. A nil right row (a left join's unextended row) leaves them
// unbound.
func (sh *Shared) Combine(out, left, right []uint32) []uint32 {
	copy(out, left)
	if right == nil {
		return out
	}
	for i, c := range sh.Left {
		if out[c] == 0 {
			out[c] = right[sh.Right[i]]
		}
	}
	for k, c := range sh.extra {
		out[len(left)+k] = right[c]
	}
	return out
}

// Table is the in-memory join table: one side's rows, indexed on the ids
// of their shared columns. Add copies each row into slabs of ids, which
// never move, so a row stays valid for the table's life. Rows of one key
// form a chain, which an id-hashed index finds; a row with an unbound
// shared column is kept aside (loose), since it can join rows of any key.
type Table struct {
	cols  []int
	width int        // ids per row, set by the first Add
	n     int32      // rows added
	shift uint       // slab k holds 1<<(shift+k) rows
	slabs [][]uint32 // the rows, width ids each
	index idIndex    // key → its chain
	heads []int32    // per chain, its last row
	next  []int32    // per row, the chain's row before it, or -1
	loose []int32
	bytes int64 // estimated footprint of the rows
}

// NewTable returns an empty table of rows whose shared columns are cols,
// sized for n rows.
func NewTable(cols []int, n int) *Table {
	shift := uint(6) // 64 rows when the size is unknown
	if n > 0 {
		shift = uint(bits.Len(uint(n - 1)))
	}
	return &Table{cols: cols, shift: shift, next: make([]int32, 0, n)}
}

// Len returns the number of rows.
func (t *Table) Len() int { return int(t.n) }

// Row returns the i-th row added.
func (t *Table) Row(i int32) []uint32 {
	k := bits.Len32(uint32(i)>>t.shift+1) - 1
	off := (int(i) - (1<<k-1)<<t.shift) * t.width
	return t.slabs[k][off : off+t.width : off+t.width]
}

// Add copies a row into the table.
func (t *Table) Add(row []uint32) {
	i := t.n
	if i == 0 {
		t.width = len(row)
	}
	if k := len(t.slabs); int(i) == (1<<k-1)<<t.shift {
		t.slabs = append(t.slabs, make([]uint32, t.width<<(t.shift+uint(k))))
	}
	copy(t.Row(i), row)
	t.n++
	t.next = append(t.next, -1)
	t.bytes += rowBytes(row)
	h, keyed := hashKey(row, t.cols)
	if !keyed {
		t.loose = append(t.loose, i)
		return
	}
	if t.index.slots == nil {
		t.index.reserve(cap(t.next) - int(i))
	}
	if g, ok := t.index.lookup(h, func(g int32) bool { return t.sameKey(g, row, t.cols) }, t.chainHash); ok {
		t.next[i], t.heads[g] = t.heads[g], i
	} else {
		t.heads = append(t.heads, i)
	}
}

// sameKey reports whether chain g's rows have row's ids in its columns
// cols.
func (t *Table) sameKey(g int32, row []uint32, cols []int) bool {
	r := t.Row(t.heads[g])
	for k, c := range t.cols {
		if r[c] != row[cols[k]] {
			return false
		}
	}
	return true
}

// chainHash returns the hash of chain g's key.
func (t *Table) chainHash(g int32) uint64 {
	h, _ := hashKey(t.Row(t.heads[g]), t.cols)
	return h
}

// Probe is the scratch space of one goroutine's Matches calls.
type Probe struct {
	hits []int32
}

// Matches returns the rows, in the order they were added, that join row,
// whose shared columns are cols (paired with the table's). A row whose
// shared columns are all bound is looked up by key and checked against
// the loose rows; one with an unbound shared column is checked against
// every row. The result is p's, valid until its next use.
func (t *Table) Matches(row []uint32, cols []int, p *Probe) []int32 {
	hits := p.hits[:0]
	h, keyed := hashKey(row, cols)
	if !keyed {
		for i := range t.n {
			if t.compatible(t.Row(i), row, cols) {
				hits = append(hits, i)
			}
		}
		p.hits = hits
		return hits
	}
	if g, ok := t.index.lookup(h, func(g int32) bool { return t.sameKey(g, row, cols) }, nil); ok {
		for i := t.heads[g]; i >= 0; i = t.next[i] {
			hits = append(hits, i)
		}
		slices.Reverse(hits)
	}
	if len(t.loose) > 0 {
		for _, l := range t.loose {
			if t.compatible(t.Row(l), row, cols) {
				hits = append(hits, l)
			}
		}
		slices.Sort(hits)
	}
	p.hits = hits
	return hits
}

// compatible reports whether a table row and a row with shared columns
// cols agree on every shared variable both bind.
func (t *Table) compatible(r, row []uint32, cols []int) bool {
	for k, c := range t.cols {
		if a, b := r[c], row[cols[k]]; a != 0 && b != 0 && a != b {
			return false
		}
	}
	return true
}

// rowBytes estimates a row's resident footprint in a join table; its
// terms live in the query's dictionary, which the budget does not cover.
func rowBytes(row []uint32) int64 { return int64(32 + 4*len(row)) }

// idIndex numbers the distinct keys of rows of ids. It is an
// open-addressing array of slots, probed linearly from a hash of a key's
// ids, each holding a key's number. The caller keeps the keys: it
// confirms a candidate by comparing ids, and hashes them again as the
// slots grow.
type idIndex struct {
	slots []int32 // per slot, a key's number + 1, or 0 when free
	keys  int32
}

// mix folds an id into a key's hash.
func mix(h uint64, id uint32) uint64 {
	h = (h ^ uint64(id)) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// hashKey returns the hash of a row's ids in the columns cols, and false
// when one of them is unbound: the row has no key.
func hashKey(row []uint32, cols []int) (uint64, bool) {
	var h uint64
	for _, c := range cols {
		if row[c] == 0 {
			return 0, false
		}
		h = mix(h, row[c])
	}
	return h, true
}

// hashIDs returns the hash of a tuple of ids, unbound ones included.
func hashIDs(ids []uint32) uint64 {
	var h uint64
	for _, id := range ids {
		h = mix(h, id)
	}
	return h
}

// reserve sizes an empty index for n keys.
func (x *idIndex) reserve(n int) {
	x.slots = make([]int32, max(8, 1<<bits.Len(uint(2*max(n, 1)-1))))
}

// lookup returns the number of the key hashed h that same confirms, and
// true. An absent key it adds when hash is set, numbering it next, and
// returns its number and false; hash gives a key's hash from its number
// when the slots grow. Otherwise it returns -1 and false.
func (x *idIndex) lookup(h uint64, same func(int32) bool, hash func(int32) uint64) (int32, bool) {
	if hash != nil && 2*int(x.keys+1) > len(x.slots) {
		x.grow(hash)
	}
	if len(x.slots) == 0 {
		return -1, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		g := x.slots[i] - 1
		if g < 0 {
			if hash == nil {
				return -1, false
			}
			g = x.keys
			x.slots[i] = g + 1
			x.keys++
			return g, false
		}
		if same(g) {
			return g, true
		}
	}
}

// grow doubles the slots and places every key again.
func (x *idIndex) grow(hash func(int32) uint64) {
	x.slots = make([]int32, max(8, 2*len(x.slots)))
	mask := uint64(len(x.slots) - 1)
	for g := range x.keys {
		i := hash(g) & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = g + 1
	}
}
