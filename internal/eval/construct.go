package eval

import (
	"fmt"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// Construct evaluates a CONSTRUCT query: the WHERE clause's solutions
// instantiate the template, and the resulting triples are returned with
// duplicates removed. Template patterns whose positions remain unbound in
// a solution (or would bind a literal subject/predicate) are skipped for
// that solution, per the SPARQL spec.
func (e *Evaluator) Construct(q *sparql.Query) ([]rdf.Triple, error) {
	if q.Form != sparql.ConstructForm {
		return nil, fmt.Errorf("eval: Construct requires a CONSTRUCT query")
	}
	sc := newScope(e)
	sc.addGroup(q.Where)
	rows, err := sc.evalGroup(q.Where, []row{sc.emptyRow()}, -1)
	if err != nil {
		return nil, err
	}
	solutions := make([]map[string]rdf.Term, len(rows))
	for i, r := range rows {
		b := map[string]rdf.Term{}
		for v, s := range sc.slots {
			if r[s] != unbound {
				b[v] = sc.term(r[s])
			}
		}
		solutions[i] = b
	}
	return InstantiateTemplate(q.Template, solutions), nil
}

// InstantiateTemplate substitutes each solution into the template and
// collects the valid, deduplicated triples. It is shared by the local
// evaluator and the federated engines.
func InstantiateTemplate(template []sparql.TriplePattern, solutions []map[string]rdf.Term) []rdf.Triple {
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	for _, b := range solutions {
		for _, tp := range template {
			t, ok := instantiate(tp, b)
			if !ok || seen[t] {
				continue
			}
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func instantiate(tp sparql.TriplePattern, b map[string]rdf.Term) (rdf.Triple, bool) {
	bind := func(pt sparql.PatternTerm) (rdf.Term, bool) {
		if !pt.IsVar() {
			return pt.Term, true
		}
		t, ok := b[pt.Var]
		return t, ok && !t.IsZero()
	}
	s, ok := bind(tp.S)
	if !ok || s.IsLiteral() {
		return rdf.Triple{}, false
	}
	p, ok := bind(tp.P)
	if !ok || !p.IsIRI() {
		return rdf.Triple{}, false
	}
	o, ok := bind(tp.O)
	if !ok {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: s, P: p, O: o}, true
}
