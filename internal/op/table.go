package op

import "slices"

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
// of their shared columns. A row with an unbound shared column is kept
// aside (loose), since it can join rows of any key.
type Table struct {
	cols  []int
	rows  [][]uint32
	index map[string]int32 // key → its chain
	heads []int32          // per chain, its last row
	next  []int32          // per row, the chain's row before it, or -1
	loose []int32
	key   []byte
	bytes int64 // estimated footprint of the rows
}

// NewTable returns an empty table of rows whose shared columns are cols,
// sized for n rows.
func NewTable(cols []int, n int) *Table {
	return &Table{cols: cols, rows: make([][]uint32, 0, n), next: make([]int32, 0, n)}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns the i-th row added.
func (t *Table) Row(i int32) []uint32 { return t.rows[i] }

// Add puts a row, which the table retains, in the table.
func (t *Table) Add(row []uint32) {
	i := int32(len(t.rows))
	t.rows, t.next = append(t.rows, row), append(t.next, -1)
	t.bytes += rowBytes(row)
	var keyed bool
	if t.key, keyed = appendKey(t.key[:0], row, t.cols); !keyed {
		t.loose = append(t.loose, i)
	} else if g, ok := t.index[string(t.key)]; ok {
		t.next[i], t.heads[g] = t.heads[g], i
	} else {
		if t.index == nil {
			t.index = make(map[string]int32, cap(t.rows)-int(i))
		}
		t.index[string(t.key)] = int32(len(t.heads))
		t.heads = append(t.heads, i)
	}
}

// Probe is the scratch space of one goroutine's Matches calls.
type Probe struct {
	key  []byte
	hits []int32
}

// Matches returns the rows, in the order they were added, that join row,
// whose shared columns are cols (paired with the table's). A row whose
// shared columns are all bound is looked up by key and checked against
// the loose rows; one with an unbound shared column is checked against
// every row. The result is p's, valid until its next use.
func (t *Table) Matches(row []uint32, cols []int, p *Probe) []int32 {
	hits := p.hits[:0]
	var keyed bool
	if p.key, keyed = appendKey(p.key[:0], row, cols); !keyed {
		for i, r := range t.rows {
			if t.compatible(r, row, cols) {
				hits = append(hits, int32(i))
			}
		}
		p.hits = hits
		return hits
	}
	if g, ok := t.index[string(p.key)]; ok {
		for i := t.heads[g]; i >= 0; i = t.next[i] {
			hits = append(hits, i)
		}
		slices.Reverse(hits)
	}
	if len(t.loose) > 0 {
		for _, l := range t.loose {
			if t.compatible(t.rows[l], row, cols) {
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
