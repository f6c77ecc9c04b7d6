package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lusail/internal/federation"
	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

func testEngine() *Engine {
	return MustNew(federation.MustNew(), DefaultOptions())
}

// naiveHashJoin is the materializing reference join: build on the smaller
// relation, probe with the larger; with no shared variables, a cross
// product.
func naiveHashJoin(a, b *sparql.Results) *sparql.Results {
	if len(a.Rows) > len(b.Rows) {
		a, b = b, a
	}
	var shared []string
	outVars := append([]string(nil), a.Vars...)
	var bExtraIdx []int
	for i, v := range b.Vars {
		if a.VarIndex(v) >= 0 {
			shared = append(shared, v)
		} else {
			outVars = append(outVars, v)
			bExtraIdx = append(bExtraIdx, i)
		}
	}
	out := sparql.NewResults(outVars)
	combine := func(ra, rb []rdf.Term) {
		nr := append([]rdf.Term(nil), ra...)
		for _, i := range bExtraIdx {
			nr = append(nr, rb[i])
		}
		out.Rows = append(out.Rows, nr)
	}
	if len(shared) == 0 {
		for _, ra := range a.Rows {
			for _, rb := range b.Rows {
				combine(ra, rb)
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
	key := func(row []rdf.Term, idx []int) (string, bool) {
		k := ""
		for _, i := range idx {
			if row[i].IsZero() {
				return "", false
			}
			k += row[i].String() + "\t"
		}
		return k, true
	}
	table := map[string][][]rdf.Term{}
	for _, ra := range a.Rows {
		if k, ok := key(ra, aIdx); ok {
			table[k] = append(table[k], ra)
		}
	}
	for _, rb := range b.Rows {
		if k, ok := key(rb, bIdx); ok {
			for _, ra := range table[k] {
				combine(ra, rb)
			}
		}
	}
	return out
}

func mkRel(vars []string, rows ...[]string) *sparql.Results {
	r := sparql.NewResults(vars)
	for _, row := range rows {
		terms := make([]rdf.Term, len(row))
		for i, v := range row {
			if v != "" {
				terms[i] = rdf.NewIRI("http://ex/" + v)
			}
		}
		r.Rows = append(r.Rows, terms)
	}
	return r
}

func sortedKeys(r *sparql.Results) []string {
	var out []string
	for _, row := range r.Rows {
		key := ""
		for _, t := range row {
			key += t.Value + "|"
		}
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// Join order must never change the result: streaming hash joins folded
// left-to-right, right-to-left, and with swapped build and probe sides
// agree with the materialized hash join on random connected relation sets.
func TestJoinOrderIndependenceProperty(t *testing.T) {
	e := testEngine()
	ctx := context.Background()
	dict := rdf.NewDict()
	join := func(probe, build *sparql.Results) *sparql.Results {
		out, err := op.Collect(op.HashJoin(ctx,
			op.NewSlice(probe.Vars, op.InternRows(dict, probe.Rows)),
			op.NewSlice(build.Vars, op.InternRows(dict, build.Rows)), e.join), dict)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		// Chain-connected relations R0(v0,v1), R1(v1,v2), ...
		n := 3 + rng.Intn(4)
		rels := make([]*sparql.Results, n)
		for i := 0; i < n; i++ {
			vars := []string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)}
			var rows [][]string
			for k := 0; k < 2+rng.Intn(8); k++ {
				rows = append(rows, []string{
					fmt.Sprintf("x%d", rng.Intn(4)),
					fmt.Sprintf("x%d", rng.Intn(4)),
				})
			}
			rels[i] = mkRel(vars, rows...)
			rels[i].Rows = sparql.DistinctRows(rels[i].Rows)
		}
		forward, swapped, naive := rels[0], rels[0], rels[0]
		for _, r := range rels[1:] {
			forward = join(forward, r)
			swapped = join(r, swapped)
			naive = naiveHashJoin(naive, r)
		}
		backward := rels[n-1]
		for i := n - 2; i >= 0; i-- {
			backward = join(backward, rels[i])
		}
		// Align columns before comparing.
		align := func(r *sparql.Results) []string {
			cols := append([]string(nil), r.Vars...)
			sort.Strings(cols)
			out := sparql.NewResults(cols)
			for i := range r.Rows {
				b := r.Binding(i)
				row := make([]rdf.Term, len(cols))
				for j, v := range cols {
					row[j] = b[v]
				}
				out.Rows = append(out.Rows, row)
			}
			out.Rows = sparql.DistinctRows(out.Rows)
			return sortedKeys(out)
		}
		for name, got := range map[string]*sparql.Results{"forward": forward, "backward": backward, "swapped": swapped} {
			if !reflect.DeepEqual(align(got), align(naive)) {
				t.Fatalf("trial %d: %s != naive", trial, name)
			}
		}
	}
}
