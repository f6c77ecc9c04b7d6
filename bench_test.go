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
	// 2..32 endpoints keeps each fig12bc iteration under a few seconds;
	// lusail-bench sweeps to 256 (the paper's maximum).
	return bench.ExpOptions{Scale: 1, Timeout: 30 * time.Second, Repeats: 1, Endpoints: []int{2, 8, 32}}
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

// benchExperiment regenerates one experiment per iteration.
func benchExperiment(b *testing.B, run func(context.Context, bench.ExpOptions) ([]*bench.Table, error)) {
	for i := 0; i < b.N; i++ {
		ts, err := run(context.Background(), benchExp())
		if err != nil {
			b.Fatal(err)
		}
		logTables(b, i, ts...)
	}
}

func BenchmarkTable1_Datasets(b *testing.B)      { benchExperiment(b, bench.Table1Datasets) }
func BenchmarkFig8_QFed(b *testing.B)            { benchExperiment(b, bench.Fig8QFed) }
func BenchmarkFig9_LUBM(b *testing.B)            { benchExperiment(b, bench.Fig9LUBM) }
func BenchmarkFig10_LargeRDFBench(b *testing.B)  { benchExperiment(b, bench.Fig10LargeRDFBench) }
func BenchmarkFig11_Geo(b *testing.B)            { benchExperiment(b, bench.Fig11Geo) }
func BenchmarkFig12a_Profile(b *testing.B)       { benchExperiment(b, bench.Fig12aProfile) }
func BenchmarkFig12bc_Scaling(b *testing.B)      { benchExperiment(b, bench.Fig12bcScaling) }
func BenchmarkFig13_Thresholds(b *testing.B)     { benchExperiment(b, bench.Fig13Thresholds) }
func BenchmarkFig14_Ablation(b *testing.B)       { benchExperiment(b, bench.Fig14Ablation) }
func BenchmarkTable2_RealEndpoints(b *testing.B) { benchExperiment(b, bench.Table2RealEndpoints) }
func BenchmarkPreprocessingCost(b *testing.B)    { benchExperiment(b, bench.PreprocessingCost) }
func BenchmarkAblationBlockSize(b *testing.B)    { benchExperiment(b, bench.BlockSizeAblation) }

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
