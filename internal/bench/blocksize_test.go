package bench

import (
	"context"
	"reflect"
	"testing"

	"lusail/internal/core"
	"lusail/internal/eval"
	"lusail/internal/obs"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// TestBlockSizeMetamorphic: the VALUES block size changes how a bound
// join ships its bindings — one per block at size 1, so every bound join
// of more than one binding spans blocks, and one whose bindings outnumber
// its subquery's limit (LUBM Q4's) switches to an unbound scan after
// shipping some — but never the answer: over the LUBM and LRB corpora,
// every block size returns the eval oracle's multiset.
func TestBlockSizeMetamorphic(t *testing.T) {
	midStream := 0
	for _, corpus := range []struct {
		name     string
		datasets []Dataset
		queries  []Query
	}{
		{"lubm", GenerateLUBM(DefaultLUBM(2)), LUBMQueries()},
		{"lrb", GenerateLRB(DefaultLRB()), LRBQueries()},
	} {
		fed, err := NewFed(corpus.datasets, InProcess())
		if err != nil {
			t.Fatal(err)
		}
		oracle := store.New()
		for _, ds := range corpus.datasets {
			oracle.AddAll(ds.Triples)
		}
		multiBlock := 0
		for _, size := range []int{1, 7, 500} {
			opts := core.DefaultOptions()
			opts.ValuesBlockSize, opts.Trace = size, true
			eng := fed.NewLusail(opts)
			for _, q := range corpus.queries {
				want, err := eval.New(oracle).QueryString(q.Text)
				if err != nil {
					t.Fatalf("oracle %s: %v", q.Name, err)
				}
				got, prof, err := eng.QueryString(context.Background(), q.Text)
				if err != nil {
					t.Fatalf("%s %s block size %d: %v", corpus.name, q.Name, size, err)
				}
				if sparql.MustParse(q.Text).Limit >= 0 {
					if len(got.Rows) != len(want.Rows) {
						t.Errorf("%s %s block size %d: %d rows, oracle %d (LIMIT)", corpus.name, q.Name, size, len(got.Rows), len(want.Rows))
					}
					continue
				}
				got.Sort()
				want.Sort()
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s %s block size %d: %d rows, oracle %d", corpus.name, q.Name, size, len(got.Rows), len(want.Rows))
				}
				for _, sp := range obs.FindAll(prof.Trace, "bound-join") {
					unbound, _ := sp.Attr("unbound")
					blocks, _ := sp.Attr("blocks")
					if n, _ := blocks.(int); n > 1 {
						multiBlock++
					}
					if unbound == true && blocks != 0 {
						midStream++
					}
				}
			}
		}
		if multiBlock == 0 {
			t.Errorf("%s: no bound join shipped more than one block", corpus.name)
		}
	}
	if midStream == 0 {
		t.Error("no bound join switched to a scan after shipping a block")
	}
}
