package eval

import (
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// row is one solution mapping: a term id per variable slot of its scope.
type row []uint32

// unbound marks an unbound slot. It is store.Wildcard, so a row's value
// for a pattern position is also the id to match it with.
const unbound = store.Wildcard

// localBase is the first query-local id. Terms the store's dictionary
// lacks — VALUES cells, BIND results, constants in no triple — get ids from
// here up, above every dictionary id (store.Graph keeps those below 1<<31),
// so ids stay equal exactly when terms are, and a local id matches nothing
// in the store.
const localBase = 1 << 31

// maxSlabRows caps how many rows one allocation holds; slabs start small
// and double, so a LIMIT 1 query does not pay for a large one.
const maxSlabRows = 256

// scope is the evaluation state of one query: its variables compiled to
// slots, and the terms it gave query-local ids.
type scope struct {
	e     *Evaluator
	st    store.Graph
	slots map[string]int
	width int

	ids      map[rdf.Term]uint32 // every term given an id so far
	local    []rdf.Term          // term of query-local id localBase+i
	slab     []uint32            // backing store for new rows
	slabRows int                 // rows the last slab held
}

func newScope(e *Evaluator) *scope {
	return &scope{e: e, st: e.st, slots: map[string]int{}, ids: map[rdf.Term]uint32{}}
}

// addVar gives a variable a slot. All slots are assigned before the first
// row is built.
func (sc *scope) addVar(v string) {
	if _, ok := sc.slots[v]; !ok {
		sc.slots[v] = sc.width
		sc.width++
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
			sc.addExists(el.Expr)
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
			sc.addExists(el.Expr)
		}
	}
}

// addExists adds the variables of the EXISTS blocks in an expression.
func (sc *scope) addExists(x sparql.Expr) {
	switch x := x.(type) {
	case sparql.ExprExists:
		sc.addGroup(x.Group)
	case sparql.ExprUnary:
		sc.addExists(x.X)
	case sparql.ExprBinary:
		sc.addExists(x.L)
		sc.addExists(x.R)
	case sparql.ExprCall:
		for _, a := range x.Args {
			sc.addExists(a)
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

// id returns the term's dictionary id, or a query-local one; the zero term
// (UNDEF) is unbound.
func (sc *scope) id(t rdf.Term) uint32 {
	if t.IsZero() {
		return unbound
	}
	if id, ok := sc.ids[t]; ok {
		return id
	}
	id, ok := sc.st.Lookup(t)
	if !ok {
		id = localBase + uint32(len(sc.local))
		sc.local = append(sc.local, t)
	}
	sc.ids[t] = id
	return id
}

// term decodes an id; unbound decodes to the zero term.
func (sc *scope) term(id uint32) rdf.Term {
	switch {
	case id == unbound:
		return rdf.Term{}
	case id >= localBase:
		return sc.local[id-localBase]
	}
	t, _ := sc.st.Term(id) // a damaged store records why on its side
	return t
}

// copyRow returns a copy of r carved from the scope's current slab.
func (sc *scope) copyRow(r row) row {
	if len(sc.slab) < sc.width {
		sc.slabRows = min(max(2*sc.slabRows, 4), maxSlabRows)
		sc.slab = make([]uint32, sc.width*sc.slabRows)
	}
	nr := row(sc.slab[:sc.width:sc.width])
	sc.slab = sc.slab[sc.width:]
	copy(nr, r)
	return nr
}

// emptyRow returns a row with every slot unbound.
func (sc *scope) emptyRow() row {
	r := make(row, sc.width)
	for i := range r {
		r[i] = unbound
	}
	return r
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

// resolve returns the ids to match the pattern with under the row:
// constants, bound variables, and unbound (a wildcard) for the rest.
func (p *pattern) resolve(r row) [3]uint32 {
	ids := p.id
	for i, s := range p.slot {
		if s >= 0 {
			ids[i] = r[s]
		}
	}
	return ids
}

// bind writes a match into the row's unbound slots. It reports false when a
// variable repeated in the pattern (?x p ?x) would need two values.
func (p *pattern) bind(r row, match [3]uint32) bool {
	for i, s := range p.slot {
		if s < 0 {
			continue
		}
		switch r[s] {
		case unbound:
			r[s] = match[i]
		case match[i]:
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

func (b rowBinding) get(v string) (rdf.Term, bool) {
	s := b.sc.slot(v)
	if s < 0 || b.r[s] == unbound {
		return rdf.Term{}, false
	}
	return b.sc.term(b.r[s]), true
}

// exists evaluates an EXISTS block against the row. Lusail's check-query
// shape, EXISTS over a single sub-select projecting one variable, reduces
// to membership in the (memoized) sub-select's column.
func (b rowBinding) exists(g *sparql.GroupPattern) (bool, error) {
	if sub, v, ok := singleVarSubSelect(g); ok {
		if val, bound := b.get(v); bound {
			set, err := b.sc.e.subSelectSet(sub, v)
			if err != nil {
				return false, err
			}
			return set[val], nil
		}
	}
	rows, err := b.sc.evalGroup(g, []row{b.r}, 1)
	return len(rows) > 0, err
}
