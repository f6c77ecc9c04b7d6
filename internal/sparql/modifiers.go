package sparql

import (
	"fmt"
	"slices"
	"sort"

	"lusail/internal/rdf"
)

// This file holds the modifiers that need a complete relation: GROUP BY
// and aggregates, then ORDER BY. The one solution-modifier tail is
// op.Finish, which both sides of the federation finish a query on: it
// drains into GroupAndSort when the query has any of these, and streams
// projection, DISTINCT and OFFSET/LIMIT after it.

// ModifierVars returns the variables the solution modifiers read from the
// relation they are given: the grouping and aggregated variables of a
// grouped query, otherwise the projected variables followed by any ORDER
// BY keys that are not projected. A relation built over exactly these
// columns loses nothing, and one without extra ORDER BY keys needs no
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

// GroupedVars returns the header GROUP BY and aggregation give a
// relation: the projection, then the grouping variables it leaves out,
// which ORDER BY may still name.
func GroupedVars(q *Query) []string {
	var vars []string
	for _, p := range q.Projection {
		vars = append(vars, p.Var)
	}
	for _, v := range q.GroupBy {
		if !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
	}
	return vars
}

// GroupAndSort applies q's GROUP BY and aggregates, then its ORDER BY, to
// the complete solution relation. The result's header is GroupedVars(q)
// for a grouped query and rel's otherwise. Sorting sees the whole
// relation, so an ORDER BY key need not be projected. rel is not modified;
// the result may share its rows.
func GroupAndSort(q *Query, rel *Results) (*Results, error) {
	if len(q.GroupBy) > 0 || q.HasAggregates() {
		var err error
		if rel, err = groupRows(q, rel); err != nil {
			return nil, err
		}
	}
	if len(q.OrderBy) == 0 {
		return rel, nil
	}
	return &Results{Vars: rel.Vars, Rows: sortedRows(rel, q.OrderBy)}, nil
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
// over its partition. The output header is GroupedVars(q).
func groupRows(q *Query, rel *Results) (*Results, error) {
	// Each output column is an aggregate or a grouping variable, read at
	// column src of the input.
	type column struct {
		agg *Aggregate
		src int
	}
	vars := GroupedVars(q)
	cols := make([]column, len(vars))
	for i, v := range vars {
		cols[i].src = rel.VarIndex(v)
		if i >= len(q.Projection) {
			continue
		}
		switch p := q.Projection[i]; {
		case p.Agg != nil:
			cols[i] = column{agg: p.Agg, src: rel.VarIndex(p.Agg.Var)}
		case !slices.Contains(q.GroupBy, v):
			return nil, fmt.Errorf("sparql: projected variable ?%s is neither grouped nor aggregated", v)
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
