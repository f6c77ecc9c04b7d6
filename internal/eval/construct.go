package eval

import (
	"fmt"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// Construct evaluates a CONSTRUCT query: the WHERE clause's solutions, as
// a SELECT * over it, instantiate the template, and the resulting triples
// are returned with duplicates removed. Template patterns whose positions
// remain unbound in a solution (or would bind a literal subject/predicate)
// are skipped for that solution, per the SPARQL spec.
func (e *Evaluator) Construct(q *sparql.Query) ([]rdf.Triple, error) {
	if q.Form != sparql.ConstructForm {
		return nil, fmt.Errorf("eval: Construct requires a CONSTRUCT query")
	}
	sel := sparql.NewSelect()
	sel.Star, sel.Where = true, q.Where
	res, err := e.Query(sel)
	if err != nil {
		return nil, err
	}
	return InstantiateTemplate(q.Template, res), nil
}

// InstantiateTemplate substitutes each solution into the template and
// collects the valid, deduplicated triples. It is shared by the local
// evaluator and the federated engines.
func InstantiateTemplate(template []sparql.TriplePattern, solutions *sparql.Results) []rdf.Triple {
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	for i := range solutions.Rows {
		b := solutions.Binding(i)
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
