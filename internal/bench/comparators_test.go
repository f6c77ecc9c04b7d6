package bench

import (
	"context"
	"testing"
)

// TestRequestsPinned pins the request count of every compared system on
// every fig9 (LUBM, 2 and 4 endpoints) and fig10 (LargeRDFBench) query to
// the numbers captured before the three comparator engines were folded
// into internal/baseline over the shared catalog. Request counts are
// deterministic, so they are asserted exactly; the columns follow the
// systems slice below.
func TestRequestsPinned(t *testing.T) {
	systems := []EngineKind{Lusail, LusailCatalog, LusailLADE, FedX, HiBISCuS, SPLENDID}
	// C3 and C7 each hold two structurally identical patterns, which the
	// ASK selector probes concurrently: whether the second finds the
	// first's cache entry is a race, so one extra round of ASKs (one per
	// endpoint) is accepted there.
	duplicatePattern := map[string]bool{"C3": true, "C7": true}
	for _, fx := range []struct {
		name     string
		datasets []Dataset
		queries  []Query
		requests map[string][6]int64
	}{
		{"lubm2", GenerateLUBM(DefaultLUBM(2)), LUBMQueries(), map[string][6]int64{
			"Q1": {50, 26, 50, 60, 48, 20},
			"Q2": {48, 24, 48, 56, 44, 12},
			"Q3": {14, 6, 14, 14, 10, 6},
			"Q4": {48, 24, 48, 36, 24, 20},
		}},
		{"lubm4", GenerateLUBM(DefaultLUBM(4)), LUBMQueries(), map[string][6]int64{
			"Q1": {100, 52, 100, 356, 332, 56},
			"Q2": {96, 48, 96, 308, 284, 32},
			"Q3": {28, 12, 28, 40, 32, 12},
			"Q4": {96, 48, 96, 104, 80, 64},
		}},
		{"lrb", GenerateLRB(LRBConfig{Scale: 1, Seed: 11}), LRBQueries(), map[string][6]int64{
			"S1":  {47, 5, 47, 41, 2, 3},
			"S2":  {53, 7, 53, 46, 2, 7},
			"S3":  {31, 3, 31, 27, 1, 4},
			"S4":  {32, 4, 32, 27, 1, 2},
			"S5":  {53, 7, 53, 46, 2, 7},
			"S6":  {48, 6, 48, 40, 1, 3},
			"S7":  {53, 7, 53, 52, 3, 13},
			"S8":  {30, 2, 30, 27, 1, 2},
			"S9":  {47, 5, 47, 41, 2, 3},
			"S10": {47, 4, 47, 43, 4, 4},
			"S11": {32, 4, 32, 27, 1, 2},
			"S12": {53, 7, 53, 46, 2, 7},
			"S13": {68, 8, 68, 75, 3, 15},
			"S14": {68, 8, 68, 95, 9, 15},
			"C1":  {102, 14, 102, 100, 9, 28},
			"C2":  {82, 9, 82, 73, 4, 9},
			"C3":  {93, 14, 93, 143, 9, 39},
			"C4":  {64, 8, 64, 53, 1, 9},
			"C5":  {62, 6, 62, 54, 2, 6},
			"C6":  {30, 4, 30, 28, 2, 2},
			"C7":  {66, 7, 66, 141, 89, 9},
			"C8":  {91, 9, 91, 83, 5, 13},
			"C9":  {102, 14, 102, 128, 12, 19},
			"C10": {30, 4, 30, 28, 2, 2},
			"B1":  {68, 8, 68, 142, 94, 12},
			"B2":  {49, 7, 49, 40, 1, 3},
			"B3":  {62, 5, 62, 97, 47, 7},
			"B4":  {87, 13, 87, 90, 9, 25},
			"B5":  {62, 6, 62, 54, 2, 5},
			"B6":  {62, 7, 62, 54, 2, 5},
			"B7":  {46, 4, 46, 43, 4, 4},
			"B8":  {94, 10, 94, 88, 10, 15},
		}},
	} {
		fed, err := NewFed(fx.datasets, InProcess())
		if err != nil {
			t.Fatal(err)
		}
		if len(fx.requests) != len(fx.queries) {
			t.Errorf("%s: %d queries, %d pinned", fx.name, len(fx.queries), len(fx.requests))
		}
		for _, q := range fx.queries {
			for i, s := range systems {
				r := fed.Run(context.Background(), s, q.Text, RunOptions{})
				if r.Err != nil {
					t.Errorf("%s %s %s: %v", fx.name, q.Name, s, r.Err)
					continue
				}
				want := fx.requests[q.Name][i]
				if r.Requests != want && !(duplicatePattern[q.Name] && r.Requests == want+int64(len(fx.datasets))) {
					t.Errorf("%s %s %s: %d requests, pinned %d", fx.name, q.Name, s, r.Requests, want)
				}
			}
		}
	}
}
