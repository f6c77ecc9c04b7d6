package lusail_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 5). Each benchmark regenerates its experiment — workload,
// parameter sweep, baselines — and prints the resulting table once (run
// with -v to see it). Absolute numbers come from the scaled-down synthetic
// substrate; the shapes (who wins, by what factor, where crossovers fall)
// are the reproduction target recorded in EXPERIMENTS.md.
//
// Run:
//
//	go test -bench=. -benchmem .
//	go run ./cmd/lusail-bench -scale 4   # bigger data, full tables

import (
	"context"
	"testing"
	"time"

	"lusail/internal/bench"
)

func benchExp() bench.ExpOptions {
	return bench.ExpOptions{Scale: 1, Timeout: 30 * time.Second, Repeats: 1}
}

// logTables prints experiment output on the first iteration only.
func logTables(b *testing.B, i int, tables ...*bench.Table) {
	if i != 0 {
		return
	}
	for _, t := range tables {
		b.Log("\n" + t.String())
	}
}

func BenchmarkTable1_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table1Datasets(benchExp())
		logTables(b, i, t)
	}
}

func BenchmarkFig8_QFed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig8QFed(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, t)
	}
}

func BenchmarkFig9_LUBM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := bench.Fig9LUBM(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, ts...)
	}
}

func BenchmarkFig10_LargeRDFBench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := bench.Fig10LargeRDFBench(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, ts...)
	}
}

func BenchmarkFig11_Geo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := bench.Fig11Geo(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, ts...)
	}
}

func BenchmarkFig12a_Profile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig12aProfile(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, t)
	}
}

func BenchmarkFig12bc_Scaling(b *testing.B) {
	// 2..32 endpoints keeps each iteration under a few seconds;
	// lusail-bench sweeps to 256 (the paper's maximum).
	for i := 0; i < b.N; i++ {
		ts, err := bench.Fig12bcScaling(context.Background(), []int{2, 8, 32}, benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, ts...)
	}
}

func BenchmarkDiskScale(b *testing.B) {
	// The 100k tier keeps each iteration in seconds; lusail-bench runs the
	// full magnitude grid (10⁵–10⁶+ triples) for BENCH_diskstore.json.
	for i := 0; i < b.N; i++ {
		ts, err := bench.DiskScale(context.Background(), benchExp(), "lubm-100k")
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, ts...)
	}
}

func BenchmarkFig13_Thresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig13Thresholds(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, t)
	}
}

func BenchmarkFig14_Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig14Ablation(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, t)
	}
}

func BenchmarkTable2_RealEndpoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Table2RealEndpoints(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, t)
	}
}

func BenchmarkQError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, median, err := bench.QErrorExperiment(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(median, "median-q-error")
		}
		logTables(b, i, t)
	}
}

func BenchmarkPreprocessingCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.PreprocessingCost(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, t)
	}
}

func BenchmarkAblationBlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.BlockSizeAblation(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, t)
	}
}

func BenchmarkAblationPoolSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.PoolSizeAblation(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, t)
	}
}
