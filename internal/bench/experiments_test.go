package bench

import (
	"context"
	"strings"
	"testing"
	"time"
)

// fastExp keeps experiment smoke tests quick.
func fastExp() ExpOptions {
	return ExpOptions{Scale: 1, Timeout: 30 * time.Second, Repeats: 1}
}

func assertNoLusailFailures(t *testing.T, tb *Table) {
	t.Helper()
	lusailCols := []int{}
	for i, h := range tb.Header {
		if h == string(Lusail) || h == "Lusail" || h == "LADE+SAPE" {
			lusailCols = append(lusailCols, i)
		}
	}
	for _, row := range tb.Rows {
		for _, c := range lusailCols {
			if c < len(row) && (row[c] == "ERR" || row[c] == "TO") {
				t.Errorf("table %q: Lusail failed on row %v", tb.Title, row)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	ts, err := Table1Datasets(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if len(tb.Rows) < 15 {
		t.Errorf("Table 1 rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "LargeRDFBench") {
		t.Error("Table 1 missing LargeRDFBench")
	}
}

func TestFig8Smoke(t *testing.T) {
	ts, err := Fig8QFed(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if len(tb.Rows) != 7 {
		t.Errorf("Fig8 rows = %d, want 7 QFed queries", len(tb.Rows))
	}
	assertNoLusailFailures(t, tb)
}

func TestFig9Smoke(t *testing.T) {
	tables, err := Fig9LUBM(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("Fig9 tables = %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 4 {
			t.Errorf("%s rows = %d, want 4", tb.Title, len(tb.Rows))
		}
		assertNoLusailFailures(t, tb)
	}
}

func TestFig10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	tables, err := Fig10LargeRDFBench(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Fig10 tables = %d", len(tables))
	}
	wantRows := []int{14, 10, 8}
	for i, tb := range tables {
		if len(tb.Rows) != wantRows[i] {
			t.Errorf("%s rows = %d, want %d", tb.Title, len(tb.Rows), wantRows[i])
		}
		assertNoLusailFailures(t, tb)
	}
}

func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	tables, err := Fig11Geo(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Fig11 tables = %d", len(tables))
	}
	for _, tb := range tables {
		assertNoLusailFailures(t, tb)
	}
}

func TestFig12aSmoke(t *testing.T) {
	ts, err := Fig12aProfile(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if len(tb.Rows) != 3 {
		t.Errorf("Fig12a rows = %d", len(tb.Rows))
	}
}

func TestFig12bcSmoke(t *testing.T) {
	opts := fastExp()
	opts.Endpoints = []int{2, 4}
	tables, err := Fig12bcScaling(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("Fig12bc tables = %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 2 {
			t.Errorf("%s rows = %d", tb.Title, len(tb.Rows))
		}
	}
}

func TestFig13Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	ts, err := Fig13Thresholds(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if len(tb.Rows) != 3 {
		t.Errorf("Fig13 rows = %d", len(tb.Rows))
	}
}

func TestFig14Smoke(t *testing.T) {
	ts, err := Fig14Ablation(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if len(tb.Rows) != 6 {
		t.Errorf("Fig14 rows = %d, want 6", len(tb.Rows))
	}
	assertNoLusailFailures(t, tb)
}

func TestTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	ts, err := Table2RealEndpoints(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if len(tb.Rows) != 11 { // 5 Bio2RDF + 6 LRB
		t.Errorf("Table2 rows = %d, want 11", len(tb.Rows))
	}
	assertNoLusailFailures(t, tb)
}

func TestQErrorSmoke(t *testing.T) {
	tb, median, err := QErrorExperiment(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Errorf("q-error rows = %d", len(tb.Rows))
	}
	if median < 1 {
		t.Errorf("median q-error %v < 1 is impossible", median)
	}
	// The paper reports 1.09; our synthetic data should stay in the same
	// ballpark (well under an order of magnitude).
	if median > 10 {
		t.Errorf("median q-error %v implausibly large", median)
	}
}

func TestPreprocessingCostSmoke(t *testing.T) {
	ts, err := PreprocessingCost(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if len(tb.Rows) != 2 {
		t.Errorf("preprocessing rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] != "none" || row[2] != "none" {
			t.Errorf("index-free systems must have no preprocessing: %v", row)
		}
	}
}

func TestBlockSizeAblationSmoke(t *testing.T) {
	ts, err := BlockSizeAblation(context.Background(), fastExp())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if len(tb.Rows) != 5 {
		t.Errorf("block-size rows = %d", len(tb.Rows))
	}
}
