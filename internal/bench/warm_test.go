package bench

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"lusail/internal/core"
	"lusail/internal/sparql"
)

// TestWarmLUBMSharedDictParity runs LUBM Q1–Q4 twice each, concurrently, on
// one warm Lusail engine: every execution interns into the engine's one
// term dictionary while others read it, and each answer is the oracle's.
// Run under -race.
func TestWarmLUBMSharedDictParity(t *testing.T) {
	datasets := GenerateLUBM(DefaultLUBM(2))
	fed, err := NewFed(datasets, InProcess())
	if err != nil {
		t.Fatal(err)
	}
	eng := fed.NewLusail(core.DefaultOptions())
	queries := LUBMQueries()
	want := make([]*sparql.Results, len(queries))
	for i, q := range queries {
		want[i] = oracleFor(t, datasets, q.Text)
	}
	var wg sync.WaitGroup
	for range 2 {
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _, err := eng.QueryString(context.Background(), q.Text)
				if err != nil {
					t.Errorf("%s: %v", q.Name, err)
					return
				}
				got.Rows = sparql.DistinctRows(got.Rows)
				got.Sort()
				if !reflect.DeepEqual(got.Rows, want[i].Rows) {
					t.Errorf("%s: %d rows, oracle %d", q.Name, len(got.Rows), len(want[i].Rows))
				}
			}()
		}
	}
	wg.Wait()
}

// BenchmarkWarmLUBM runs LUBM Q1–Q4 on one warm in-process engine, one
// query per iteration in turn. With -benchmem its allocs/op is the
// engine's per-query allocation once planning facts and the term
// dictionary are warm (the endpoints' evaluation, in process, counts too).
func BenchmarkWarmLUBM(b *testing.B) {
	fed, err := NewFed(GenerateLUBM(DefaultLUBM(2)), InProcess())
	if err != nil {
		b.Fatal(err)
	}
	eng := fed.NewLusail(core.DefaultOptions())
	queries := LUBMQueries()
	ctx := context.Background()
	run := func(q Query) {
		rows, err := eng.Select(ctx, q.Text)
		if err != nil {
			b.Fatalf("%s: %v", q.Name, err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil || rows.Err() != nil {
			b.Fatalf("%s: %v %v", q.Name, rows.Err(), err)
		}
	}
	for _, q := range queries {
		run(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(queries[i%len(queries)])
	}
}
