package sparql

import (
	"fmt"
	"sort"

	"lusail/internal/rdf"
)

// This file holds the modifiers that need a complete relation: GROUP BY
// and aggregates, ORDER BY, then projection, DISTINCT and OFFSET/LIMIT.
// The one solution-modifier tail is op.Finish, which both sides of the
// federation finish a query on; it streams what it can and drains into
// ApplyModifiers for the rest.

// ModifierVars returns the variables ApplyModifiers reads from the
// relation it is given: the grouping and aggregated variables of a grouped
// query, otherwise the projected variables followed by any ORDER BY keys
// that are not projected. A relation built over exactly these columns
// loses nothing, and one without extra ORDER BY keys needs no
// re-projection.
func ModifierVars(q *Query) []string {
	var out []string
	seen := map[string]bool{}
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	if len(q.GroupBy) > 0 || q.HasAggregates() {
		for _, v := range q.GroupBy {
			add(v)
		}
		for _, p := range q.Projection {
			if p.Agg != nil {
				add(p.Agg.Var)
			}
		}
		return out
	}
	for _, v := range q.ProjectedVars() {
		add(v)
	}
	for _, c := range q.OrderBy {
		add(c.Var)
	}
	return out
}

// ApplyModifiers applies q's solution modifiers to the complete solution
// relation, in SPARQL's order: GROUP BY and aggregates, ORDER BY,
// projection, DISTINCT, then OFFSET and LIMIT. Sorting sees the whole
// relation, so an ORDER BY key need not be projected. rel is not modified;
// the result may share its rows.
func ApplyModifiers(q *Query, rel *Results) (*Results, error) {
	vars := q.ProjectedVars()
	if len(q.GroupBy) > 0 || q.HasAggregates() {
		var err error
		if rel, err = groupRows(q, rel); err != nil {
			return nil, err
		}
		// groupRows puts the projection first, then grouping variables
		// that are only there to be sorted on; SELECT * projects them.
		vars = rel.Vars
		if n := len(q.Projection); n > 0 {
			vars = rel.Vars[:n]
		}
	}
	rows := rel.Rows
	if len(q.OrderBy) > 0 {
		rows = sortedRows(rel, q.OrderBy)
	}
	rows = projectRows(rel.Vars, rows, vars)
	if q.Distinct {
		rows = DistinctRows(rows)
	}
	if q.Offset > 0 {
		rows = rows[min(q.Offset, len(rows)):]
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return &Results{Vars: vars, Rows: rows}, nil
}

// sortedRows returns rel's rows stably ordered by the conditions. Keys the
// relation does not carry are skipped.
func sortedRows(rel *Results, conds []OrderCond) [][]rdf.Term {
	var idx []int
	var desc []bool
	for _, c := range conds {
		if i := rel.VarIndex(c.Var); i >= 0 {
			idx = append(idx, i)
			desc = append(desc, c.Desc)
		}
	}
	rows := append([][]rdf.Term(nil), rel.Rows...)
	sort.SliceStable(rows, func(a, b int) bool {
		for k, i := range idx {
			c := rows[a][i].Compare(rows[b][i])
			if c == 0 {
				continue
			}
			if desc[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return rows
}

// projectRows re-aligns rows from the from header to the to header;
// variables absent from the source stay unbound. Rows already in the
// target shape are returned as they are.
func projectRows(from []string, rows [][]rdf.Term, to []string) [][]rdf.Term {
	same := len(from) == len(to)
	for i := 0; same && i < len(to); i++ {
		same = from[i] == to[i]
	}
	if same {
		return rows
	}
	src := &Results{Vars: from}
	idx := make([]int, len(to))
	for i, v := range to {
		idx[i] = src.VarIndex(v)
	}
	out := make([][]rdf.Term, len(rows))
	for r, row := range rows {
		nr := make([]rdf.Term, len(to))
		for i, j := range idx {
			if j >= 0 {
				nr[i] = row[j]
			}
		}
		out[r] = nr
	}
	return out
}

// DistinctRows removes duplicate rows (set semantics), keeping first
// occurrences in order.
func DistinctRows(rows [][]rdf.Term) [][]rdf.Term {
	seen := make(map[string]bool, len(rows))
	out := make([][]rdf.Term, 0, len(rows))
	for _, row := range rows {
		k := TermsKey(row)
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	return out
}

// TermsKey encodes a row as a string that is equal exactly for equal rows.
func TermsKey(row []rdf.Term) string {
	var b []byte
	for _, t := range row {
		b = append(b, byte(t.Kind))
		b = append(b, t.Value...)
		b = append(b, 1)
		b = append(b, t.Lang...)
		b = append(b, 2)
		b = append(b, t.Datatype...)
		b = append(b, 0)
	}
	return string(b)
}

// groupRows implements GROUP BY and aggregation: rows are partitioned by
// the grouping variables (one partition, possibly empty, when there are
// none) and each projection is either a grouping variable or an aggregate
// over its partition. The output header is the projection followed by the
// grouping variables it leaves out, which ORDER BY may still name.
func groupRows(q *Query, rel *Results) (*Results, error) {
	grouping := make(map[string]bool, len(q.GroupBy))
	for _, v := range q.GroupBy {
		grouping[v] = true
	}
	projected := make(map[string]bool, len(q.Projection))
	// Each output column is an aggregate or a grouping variable, read at
	// column src of the input.
	type column struct {
		agg *Aggregate
		src int
	}
	var vars []string
	var cols []column
	for _, p := range q.Projection {
		switch {
		case p.Agg != nil:
			cols = append(cols, column{agg: p.Agg, src: rel.VarIndex(p.Agg.Var)})
		case grouping[p.Var]:
			cols = append(cols, column{src: rel.VarIndex(p.Var)})
		default:
			return nil, fmt.Errorf("sparql: projected variable ?%s is neither grouped nor aggregated", p.Var)
		}
		vars = append(vars, p.Var)
		projected[p.Var] = true
	}
	for _, v := range q.GroupBy {
		if !projected[v] {
			projected[v] = true
			vars = append(vars, v)
			cols = append(cols, column{src: rel.VarIndex(v)})
		}
	}

	groups := [][][]rdf.Term{rel.Rows}
	if len(q.GroupBy) > 0 {
		groups = nil
		keyIdx := make([]int, len(q.GroupBy))
		for i, v := range q.GroupBy {
			keyIdx[i] = rel.VarIndex(v)
		}
		at := map[string]int{}
		key := make([]rdf.Term, len(keyIdx))
		for _, row := range rel.Rows {
			for i, j := range keyIdx {
				key[i] = rdf.Term{}
				if j >= 0 {
					key[i] = row[j]
				}
			}
			k := TermsKey(key)
			g, ok := at[k]
			if !ok {
				g = len(groups)
				at[k] = g
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], row)
		}
	}

	out := NewResults(vars)
	for _, group := range groups {
		row := make([]rdf.Term, len(cols))
		for i, c := range cols {
			switch {
			case c.agg != nil:
				v, err := foldAggregate(c.agg, group, c.src)
				if err != nil {
					return nil, err
				}
				row[i] = v
			case c.src >= 0:
				row[i] = group[0][c.src] // constant within the group
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// foldAggregate computes one aggregate over the rows of a group; col is
// the aggregated variable's column, or -1 when the relation lacks it (and
// for COUNT(*), which reads no column).
func foldAggregate(a *Aggregate, rows [][]rdf.Term, col int) (rdf.Term, error) {
	switch a.Func {
	case "COUNT":
		if a.Var == "" {
			return rdf.NewInteger(int64(len(rows))), nil
		}
		if col < 0 {
			return rdf.NewInteger(0), nil
		}
		if a.Distinct {
			seen := map[rdf.Term]bool{}
			for _, row := range rows {
				if !row[col].IsZero() {
					seen[row[col]] = true
				}
			}
			return rdf.NewInteger(int64(len(seen))), nil
		}
		n := 0
		for _, row := range rows {
			if !row[col].IsZero() {
				n++
			}
		}
		return rdf.NewInteger(int64(n)), nil
	case "SUM", "AVG", "MIN", "MAX":
		var vals []float64
		if col >= 0 {
			for _, row := range rows {
				if f, ok := row[col].Numeric(); ok {
					vals = append(vals, f)
				}
			}
		}
		if len(vals) == 0 {
			return rdf.NewInteger(0), nil
		}
		agg := vals[0]
		for _, v := range vals[1:] {
			switch a.Func {
			case "SUM", "AVG":
				agg += v
			case "MIN":
				if v < agg {
					agg = v
				}
			case "MAX":
				if v > agg {
					agg = v
				}
			}
		}
		if a.Func == "AVG" {
			agg /= float64(len(vals))
		}
		return rdf.NewDouble(agg), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unsupported aggregate %s", a.Func)
}
