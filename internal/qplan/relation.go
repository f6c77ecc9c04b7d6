package qplan

import (
	"lusail/internal/eval"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// Relation helpers: all federated intermediate results are represented as
// *sparql.Results (a variable header plus rows of terms).

func EmptyRelation(vars []string) *sparql.Results {
	return sparql.NewResults(vars)
}

// UnionRelations concatenates two relations, aligning columns by variable
// name. Variables missing in one side are unbound in its rows. Duplicate
// rows are preserved; set semantics is applied at finalize/dedupe points.
func UnionRelations(a, b *sparql.Results) *sparql.Results {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	vars := append([]string(nil), a.Vars...)
	seen := map[string]bool{}
	for _, v := range vars {
		seen[v] = true
	}
	for _, v := range b.Vars {
		if !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	out := sparql.NewResults(vars)
	out.Rows = make([][]rdf.Term, 0, len(a.Rows)+len(b.Rows))
	appendAligned := func(src *sparql.Results) {
		idx := make([]int, len(vars))
		for i, v := range vars {
			idx[i] = src.VarIndex(v)
		}
		for _, row := range src.Rows {
			nr := make([]rdf.Term, len(vars))
			for i, j := range idx {
				if j >= 0 {
					nr[i] = row[j]
				}
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	appendAligned(a)
	appendAligned(b)
	return out
}

// SharedVars returns variables common to both relations.
func SharedVars(a, b *sparql.Results) []string {
	var out []string
	for _, v := range a.Vars {
		if b.VarIndex(v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// JoinKey builds the hash key of a row over the given column indexes; the
// second return is false when any key column is unbound (such rows do not
// participate in an inner join on that key).
func JoinKey(row []rdf.Term, idx []int) (string, bool) {
	var b []byte
	for _, i := range idx {
		t := row[i]
		if t.IsZero() {
			return "", false
		}
		b = append(b, byte(t.Kind))
		b = append(b, t.Value...)
		b = append(b, 1)
		b = append(b, t.Lang...)
		b = append(b, 2)
		b = append(b, t.Datatype...)
		b = append(b, 0)
	}
	return string(b), true
}

// HashJoin inner-joins two relations on their shared variables using an
// in-memory hash join: build on the smaller side, probe with the larger
// (the paper's join evaluation, Section 4.2). With no shared variables it
// degenerates to a cross product.
func HashJoin(a, b *sparql.Results) *sparql.Results {
	if len(a.Rows) > len(b.Rows) {
		a, b = b, a // build on the smaller relation
	}
	shared := SharedVars(a, b)
	outVars := append([]string(nil), a.Vars...)
	var bExtraIdx []int
	for i, v := range b.Vars {
		if a.VarIndex(v) < 0 {
			outVars = append(outVars, v)
			bExtraIdx = append(bExtraIdx, i)
		}
	}
	out := sparql.NewResults(outVars)

	if len(shared) == 0 {
		for _, ra := range a.Rows {
			for _, rb := range b.Rows {
				nr := make([]rdf.Term, 0, len(outVars))
				nr = append(nr, ra...)
				for _, i := range bExtraIdx {
					nr = append(nr, rb[i])
				}
				out.Rows = append(out.Rows, nr)
			}
		}
		return out
	}

	aIdx := make([]int, len(shared))
	bIdx := make([]int, len(shared))
	for i, v := range shared {
		aIdx[i] = a.VarIndex(v)
		bIdx[i] = b.VarIndex(v)
	}
	table := make(map[string][][]rdf.Term, len(a.Rows))
	for _, ra := range a.Rows {
		if k, ok := JoinKey(ra, aIdx); ok {
			table[k] = append(table[k], ra)
		}
	}
	for _, rb := range b.Rows {
		k, ok := JoinKey(rb, bIdx)
		if !ok {
			continue
		}
		for _, ra := range table[k] {
			nr := make([]rdf.Term, 0, len(outVars))
			nr = append(nr, ra...)
			for _, i := range bExtraIdx {
				nr = append(nr, rb[i])
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}

// LeftJoin extends each row of a with compatible rows of b, keeping rows of
// a without matches (OPTIONAL semantics at the global level).
func LeftJoin(a, b *sparql.Results) *sparql.Results {
	shared := SharedVars(a, b)
	outVars := append([]string(nil), a.Vars...)
	var bExtraIdx []int
	for i, v := range b.Vars {
		if a.VarIndex(v) < 0 {
			outVars = append(outVars, v)
			bExtraIdx = append(bExtraIdx, i)
		}
	}
	out := sparql.NewResults(outVars)

	aIdx := make([]int, len(shared))
	bIdx := make([]int, len(shared))
	for i, v := range shared {
		aIdx[i] = a.VarIndex(v)
		bIdx[i] = b.VarIndex(v)
	}
	table := make(map[string][][]rdf.Term, len(b.Rows))
	for _, rb := range b.Rows {
		if k, ok := JoinKey(rb, bIdx); ok {
			table[k] = append(table[k], rb)
		}
	}
	for _, ra := range a.Rows {
		var matches [][]rdf.Term
		if len(shared) == 0 {
			matches = b.Rows
		} else if k, ok := JoinKey(ra, aIdx); ok {
			matches = table[k]
		}
		if len(matches) == 0 {
			nr := make([]rdf.Term, len(outVars))
			copy(nr, ra)
			out.Rows = append(out.Rows, nr)
			continue
		}
		for _, rb := range matches {
			nr := make([]rdf.Term, 0, len(outVars))
			nr = append(nr, ra...)
			for _, i := range bExtraIdx {
				nr = append(nr, rb[i])
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}

// ProjectDistinct returns the distinct rows of the relation restricted to
// the given variables (used to build VALUES blocks for bound joins).
func ProjectDistinct(rel *sparql.Results, vars []string) [][]rdf.Term {
	idx := make([]int, len(vars))
	for i, v := range vars {
		idx[i] = rel.VarIndex(v)
	}
	seen := map[string]bool{}
	var out [][]rdf.Term
	for _, row := range rel.Rows {
		nr := make([]rdf.Term, len(vars))
		skip := false
		for i, j := range idx {
			if j < 0 || row[j].IsZero() {
				skip = true
				break
			}
			nr[i] = row[j]
		}
		if skip {
			continue
		}
		k := sparql.TermsKey(nr)
		if !seen[k] {
			seen[k] = true
			out = append(out, nr)
		}
	}
	return out
}

// ApplyFilters keeps only rows satisfying all expressions. Expressions that
// reference variables absent from the relation are evaluated with those
// variables unbound (per SPARQL, an erroring filter drops the row).
func ApplyFilters(rel *sparql.Results, filters []sparql.Expr) *sparql.Results {
	if len(filters) == 0 || len(rel.Rows) == 0 {
		return rel
	}
	out := sparql.NewResults(rel.Vars)
	for i, row := range rel.Rows {
		b := rel.Binding(i)
		keep := true
		for _, f := range filters {
			if !eval.FilterBinding(f, b) {
				keep = false
				break
			}
		}
		if keep {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}
