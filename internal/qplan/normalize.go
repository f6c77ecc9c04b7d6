// Package qplan holds the query-planning front and back ends shared by
// every federated engine in this repository (Lusail and the FedX/HiBISCuS/
// SPLENDID baselines): normalization of parsed queries into conjunctive
// branches. The operators that evaluate them, and op.Finish, which turns
// the final relation into the query's answer, live in package op.
package qplan

import (
	"fmt"
	"sort"

	"lusail/internal/sparql"
)

// Branch is one conjunctive alternative of the query after UNION
// distribution: a set of triple patterns, filters, optional blocks, and
// inline data.
type Branch struct {
	Patterns  []sparql.TriplePattern
	Filters   []sparql.Expr
	Optionals []*OptionalBlock
	Values    []sparql.InlineData
}

// OptionalBlock is a top-level OPTIONAL group: its patterns and any filters
// scoped to it.
type OptionalBlock struct {
	Patterns []sparql.TriplePattern
	Filters  []sparql.Expr
}

// vars returns all variables bound anywhere in the Branch, sorted.
func (br *Branch) Vars() []string {
	seen := map[string]bool{}
	for _, tp := range br.Patterns {
		for _, v := range tp.Vars() {
			seen[v] = true
		}
	}
	for _, ob := range br.Optionals {
		for _, tp := range ob.Patterns {
			for _, v := range tp.Vars() {
				seen[v] = true
			}
		}
	}
	for _, vd := range br.Values {
		for _, v := range vd.Vars {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// normalize flattens the query's WHERE clause into conjunctive branches by
// distributing UNION blocks, and collects filters and optional groups.
// Federated evaluation then runs each Branch independently and unions the
// results (sound because UNION distributes over join). Every filter is
// split into its top-level conjuncts, which planners place apart.
func Normalize(q *sparql.Query) ([]*Branch, error) {
	base := &Branch{}
	branches := []*Branch{base}
	if err := flattenGroup(q.Where, &branches); err != nil {
		return nil, err
	}
	for _, br := range branches {
		if len(br.Patterns) == 0 && len(br.Optionals) == 0 {
			return nil, fmt.Errorf("lusail: query Branch has no triple patterns")
		}
	}
	return branches, nil
}

// flattenGroup merges the elements of g into every current Branch,
// multiplying branches at UNION blocks.
func flattenGroup(g *sparql.GroupPattern, branches *[]*Branch) error {
	for _, el := range g.Elements {
		switch el := el.(type) {
		case sparql.TriplePattern:
			for _, br := range *branches {
				br.Patterns = append(br.Patterns, el)
			}
		case sparql.Filter:
			conj, err := conjuncts(el)
			if err != nil {
				return err
			}
			for _, br := range *branches {
				br.Filters = append(br.Filters, conj...)
			}
		case sparql.InlineData:
			for _, br := range *branches {
				br.Values = append(br.Values, el)
			}
		case sparql.Optional:
			ob, err := flattenOptional(el.Group)
			if err != nil {
				return err
			}
			for _, br := range *branches {
				br.Optionals = append(br.Optionals, ob)
			}
		case sparql.Union:
			// Distribute: each existing Branch forks once per union Branch.
			var next []*Branch
			for _, ub := range el.Branches {
				forks := make([]*Branch, len(*branches))
				for i, br := range *branches {
					forks[i] = copyBranch(br)
				}
				if err := flattenGroup(ub, &forks); err != nil {
					return err
				}
				next = append(next, forks...)
			}
			*branches = next
		case sparql.SubSelect:
			return fmt.Errorf("lusail: nested SELECT in federated queries is not supported")
		case sparql.Bind:
			return fmt.Errorf("lusail: BIND in federated queries is not supported")
		default:
			return fmt.Errorf("lusail: unsupported pattern element %T", el)
		}
	}
	return nil
}

func flattenOptional(g *sparql.GroupPattern) (*OptionalBlock, error) {
	ob := &OptionalBlock{}
	for _, el := range g.Elements {
		switch el := el.(type) {
		case sparql.TriplePattern:
			ob.Patterns = append(ob.Patterns, el)
		case sparql.Filter:
			conj, err := conjuncts(el)
			if err != nil {
				return nil, err
			}
			ob.Filters = append(ob.Filters, conj...)
		default:
			return nil, fmt.Errorf("lusail: unsupported element %T inside OPTIONAL", el)
		}
	}
	if len(ob.Patterns) == 0 {
		return nil, fmt.Errorf("lusail: OPTIONAL block without triple patterns")
	}
	return ob, nil
}

// conjuncts splits a FILTER into its top-level conjuncts (sparql.Conjuncts),
// so that each can be pushed to wherever its variables are bound. A filter
// with an EXISTS block anywhere in it is rejected: the federation tier
// evaluates filters on joined rows, where an EXISTS block sees no graph.
func conjuncts(f sparql.Filter) ([]sparql.Expr, error) {
	if len(sparql.ExistsGroups(f.Expr)) > 0 {
		return nil, fmt.Errorf("lusail: FILTER EXISTS in federated queries is not supported")
	}
	return sparql.Conjuncts(f.Expr), nil
}

func copyBranch(br *Branch) *Branch {
	nb := &Branch{
		Patterns:  append([]sparql.TriplePattern(nil), br.Patterns...),
		Filters:   append([]sparql.Expr(nil), br.Filters...),
		Optionals: append([]*OptionalBlock(nil), br.Optionals...),
		Values:    append([]sparql.InlineData(nil), br.Values...),
	}
	return nb
}
