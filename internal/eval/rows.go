package eval

import (
	"io"
	"slices"

	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// row is one solution mapping: a term id per variable slot of its scope.
// Its ids are op's: 0 is unbound, and a term in the store is its store id
// plus one (store id 0 is a real term), so the rows need no translation
// on their way through op.Finish.
type row = []uint32

// unbound marks an unbound slot. Less one, it is store.Wildcard, so a
// row's value less one is the id to match a pattern position with.
const unbound = 0

// localBase is the first query-local id. Terms the store's dictionary
// lacks — VALUES cells, BIND results, constants in no triple — get ids from
// here up, above every dictionary id (store.Graph keeps those below 1<<31),
// so ids stay equal exactly when terms are, and a local id less one
// matches nothing in the store.
const localBase = 1<<31 + 1

// maxSlabRows caps how many rows one allocation holds; slabs start small
// and double, so a LIMIT 1 query does not pay for a large one.
const maxSlabRows = 256

// scope is the evaluation state of one query: its variables compiled to
// slots, and the terms it gave query-local ids.
type scope struct {
	ev    *evaluation
	st    store.Graph
	slots map[string]int
	vars  []string // the variable of each slot

	ids      map[rdf.Term]uint32 // every term given an id so far
	local    []rdf.Term          // term of query-local id localBase+i
	slab     []uint32            // backing store for new rows
	slabRows int                 // rows the last slab held
	bind     rowBinding          // the filters' view of the row passes tests
}

func newScope(ev *evaluation) *scope {
	sc := &scope{ev: ev, st: ev.e.st, slots: map[string]int{}, ids: map[rdf.Term]uint32{}}
	sc.bind.sc = sc
	return sc
}

// addVar gives a variable a slot. All slots are assigned before the first
// row is built.
func (sc *scope) addVar(v string) {
	if _, ok := sc.slots[v]; !ok {
		sc.slots[v] = len(sc.vars)
		sc.vars = append(sc.vars, v)
	}
}

// addGroup gives a slot to every variable the group can bind or an EXISTS
// inside it can see: a sub-select's inner variables are its own query's.
func (sc *scope) addGroup(g *sparql.GroupPattern) {
	for _, el := range g.Elements {
		switch el := el.(type) {
		case sparql.TriplePattern:
			for _, pt := range [3]sparql.PatternTerm{el.S, el.P, el.O} {
				if pt.IsVar() {
					sc.addVar(pt.Var)
				}
			}
		case sparql.Filter:
			for _, ex := range sparql.ExistsGroups(el.Expr) {
				sc.addGroup(ex)
			}
		case sparql.Optional:
			sc.addGroup(el.Group)
		case sparql.Union:
			for _, br := range el.Branches {
				sc.addGroup(br)
			}
		case sparql.SubSelect:
			for _, v := range el.Query.ProjectedVars() {
				sc.addVar(v)
			}
		case sparql.InlineData:
			for _, v := range el.Vars {
				sc.addVar(v)
			}
		case sparql.Bind:
			sc.addVar(el.Var)
			for _, ex := range sparql.ExistsGroups(el.Expr) {
				sc.addGroup(ex)
			}
		}
	}
}

// slot returns the variable's slot, or -1 for a variable the query never
// binds.
func (sc *scope) slot(v string) int {
	if i, ok := sc.slots[v]; ok {
		return i
	}
	return -1
}

// id returns the term's id: its dictionary id plus one, or a query-local
// one; the zero term (UNDEF) is unbound.
func (sc *scope) id(t rdf.Term) uint32 {
	if t.IsZero() {
		return unbound
	}
	if id, ok := sc.ids[t]; ok {
		return id
	}
	id, ok := sc.st.Lookup(t)
	if ok {
		id++
	} else {
		id = localBase + uint32(len(sc.local))
		sc.local = append(sc.local, t)
	}
	sc.ids[t] = id
	return id
}

// Term, Terms and InternRow make the scope the op.Dict of its rows.

// Term decodes an id; unbound decodes to the zero term.
func (sc *scope) Term(id uint32) rdf.Term {
	switch {
	case id == unbound:
		return rdf.Term{}
	case id >= localBase:
		return sc.local[id-localBase]
	}
	t, _ := sc.st.Term(id - 1) // a damaged store records why on its side
	return t
}

// Terms decodes ids into out, grown as needed.
func (sc *scope) Terms(ids []uint32, out []rdf.Term) []rdf.Term {
	out = slices.Grow(out[:0], len(ids))[:len(ids)]
	for i, id := range ids {
		out[i] = sc.Term(id)
	}
	return out
}

// InternRow writes the id of every term of row into ids.
func (sc *scope) InternRow(row []rdf.Term, ids []uint32) {
	for i, t := range row {
		ids[i] = sc.id(t)
	}
}

// cursor is Select's answer for every query it evaluates, all but an
// index-answered COUNT: the finished stream's rows, each decoded into one
// reused buffer by Read, or left as ids by ReadRow, so a writer that keys
// its work by id (sparql.IDRowWriter) decodes only what it writes as text.
type cursor struct {
	sc     *scope
	src    op.RowStream
	primed bool // src holds a row Read has not returned
	buf    []rdf.Term
}

func (c *cursor) Vars() []string { return c.src.Vars() }
func (c *cursor) Close() error   { return c.src.Close() }

// Dict decodes ReadRow's ids.
func (c *cursor) Dict() sparql.TermDict { return c.sc }

func (c *cursor) Read() ([]rdf.Term, error) {
	row, err := c.ReadRow()
	if err != nil {
		return nil, err
	}
	c.buf = c.sc.Terms(row, c.buf)
	return c.buf, nil
}

// ReadRow is Read with the row left as ids of Dict, 0 unbound; it is
// valid until the next read.
func (c *cursor) ReadRow() ([]uint32, error) {
	if !c.primed && !c.src.Next() {
		if err := c.src.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	c.primed = false
	return c.src.Row(), nil
}

// newRow returns an unbound row carved from the scope's current slab.
func (sc *scope) newRow() row {
	w := len(sc.vars)
	if len(sc.slab) < w {
		sc.slabRows = min(max(2*sc.slabRows, 4), maxSlabRows)
		sc.slab = make([]uint32, w*sc.slabRows)
	}
	nr := sc.slab[:w:w]
	sc.slab = sc.slab[w:]
	return nr
}

// copyRow returns a copy of r carved from the scope's current slab.
func (sc *scope) copyRow(r row) row {
	nr := sc.newRow()
	copy(nr, r)
	return nr
}

// pattern is a triple pattern compiled against a scope: per position, the
// slot of its variable, or -1 and the id of its constant.
type pattern struct {
	slot [3]int
	id   [3]uint32
}

func (sc *scope) compile(tp sparql.TriplePattern) pattern {
	var p pattern
	for i, pt := range [3]sparql.PatternTerm{tp.S, tp.P, tp.O} {
		p.slot[i] = -1
		if pt.IsVar() {
			p.slot[i] = sc.slot(pt.Var)
		} else {
			p.id[i] = sc.id(pt.Term)
		}
	}
	return p
}

// resolve returns the store ids to match the pattern with under the row:
// constants, bound variables, and store.Wildcard for the rest.
func (p *pattern) resolve(r row) [3]uint32 {
	ids := p.id
	for i, s := range p.slot {
		if s >= 0 {
			ids[i] = r[s]
		}
	}
	for i := range ids {
		ids[i]-- // unbound wraps around to store.Wildcard
	}
	return ids
}

// bind writes a match of store ids into the row's unbound slots. It
// reports false when a variable repeated in the pattern (?x p ?x) would
// need two values.
func (p *pattern) bind(r row, match [3]uint32) bool {
	for i, s := range p.slot {
		if s < 0 {
			continue
		}
		switch id := match[i] + 1; r[s] {
		case unbound:
			r[s] = id
		case id:
		default:
			return false
		}
	}
	return true
}

// linked reports whether the pattern mentions a bound slot.
func (p *pattern) linked(bound []bool) bool {
	for _, s := range p.slot {
		if s >= 0 && bound[s] {
			return true
		}
	}
	return false
}

// rowBinding is an expression's view of one row of a query.
type rowBinding struct {
	sc *scope
	r  row
}

func (b rowBinding) Get(v string) (rdf.Term, bool) {
	s := b.sc.slot(v)
	if s < 0 || b.r[s] == unbound {
		return rdf.Term{}, false
	}
	return b.sc.Term(b.r[s]), true
}

// Exists evaluates an EXISTS block against the row. Lusail's check-query
// shape, EXISTS { SELECT ?v WHERE ... } with ?v bound in the row, reduces
// to membership in the (memoized) sub-select's column: of ids when the
// sub-select only matches triple patterns, so nothing is decoded, and of
// terms otherwise.
func (b rowBinding) Exists(g *sparql.GroupPattern) (bool, error) {
	if len(g.Elements) == 1 {
		if sub, ok := g.Elements[0].(sparql.SubSelect); ok {
			m := b.sc.ev.membersOf(sub.Query)
			if s := b.sc.slot(m.v); m.v != "" && s >= 0 && b.r[s] != unbound {
				if m.ids != nil {
					// A query-local id is in no triple, so never in ids.
					_, in := m.ids[b.r[s]]
					return in, nil
				}
				terms, err := b.sc.ev.termsOf(sub.Query, m)
				return terms[b.sc.Term(b.r[s])], err
			}
		}
	}
	rows, err := b.sc.evalGroup(g, []row{b.r}, 1)
	return len(rows) > 0, err
}

// matchesOnly reports whether a sub-select's solutions are exactly its
// triple patterns' matches: no other element, no modifier that drops or
// groups them.
func matchesOnly(q *sparql.Query) bool {
	if q.Form != sparql.SelectForm || q.Limit >= 0 || q.Offset != 0 || len(q.GroupBy) > 0 || q.HasAggregates() {
		return false
	}
	for _, el := range q.Where.Elements {
		if _, ok := el.(sparql.TriplePattern); !ok {
			return false
		}
	}
	return true
}
