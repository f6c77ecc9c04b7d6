package bench

import (
	"context"
	"testing"

	"lusail/internal/core"
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
	// comparators' per-pattern ASK selection probes concurrently: whether
	// the second finds the first's cache entry is a race, so one extra
	// round of ASKs (one per endpoint) is accepted there. Lusail selects a
	// query's patterns in one call, which probes each distinct one once.
	duplicatePattern := map[string]bool{"C3": true, "C7": true}
	for _, fx := range []struct {
		name     string
		datasets []Dataset
		queries  []Query
		requests map[string][6]int64
	}{
		{"lubm2", GenerateLUBM(DefaultLUBM(2)), LUBMQueries(), map[string][6]int64{
			"Q1": {30, 26, 30, 60, 48, 20},
			"Q2": {28, 24, 28, 56, 44, 12},
			"Q3": {10, 6, 10, 14, 10, 6},
			"Q4": {28, 24, 28, 36, 24, 20},
		}},
		{"lubm4", GenerateLUBM(DefaultLUBM(4)), LUBMQueries(), map[string][6]int64{
			"Q1": {60, 52, 60, 356, 332, 56},
			"Q2": {56, 48, 56, 308, 284, 32},
			"Q3": {20, 12, 20, 40, 32, 12},
			"Q4": {56, 48, 56, 104, 80, 64},
		}},
		{"lrb", GenerateLRB(LRBConfig{Scale: 1, Seed: 11}), LRBQueries(), map[string][6]int64{
			"S1":  {20, 5, 20, 41, 2, 3},
			"S2":  {25, 7, 25, 46, 2, 7},
			"S3":  {17, 3, 17, 27, 1, 4},
			"S4":  {18, 4, 18, 27, 1, 2},
			"S5":  {25, 7, 25, 46, 2, 7},
			"S6":  {20, 6, 20, 40, 1, 3},
			"S7":  {25, 7, 25, 52, 3, 13},
			"S8":  {16, 2, 16, 27, 1, 2},
			"S9":  {20, 5, 20, 41, 2, 3},
			"S10": {20, 4, 20, 43, 4, 4},
			"S11": {18, 4, 18, 27, 1, 2},
			"S12": {26, 7, 26, 46, 2, 7},
			"S13": {26, 8, 26, 75, 3, 15},
			"S14": {27, 8, 27, 95, 9, 15},
			"C1":  {33, 14, 33, 100, 9, 28},
			"C2":  {27, 9, 27, 73, 4, 9},
			"C3":  {32, 14, 32, 143, 9, 39},
			"C4":  {22, 8, 22, 53, 1, 9},
			"C5":  {21, 6, 21, 54, 2, 6},
			"C6":  {17, 4, 17, 28, 2, 2},
			"C7":  {23, 7, 23, 141, 89, 9},
			"C8":  {24, 9, 24, 83, 5, 13},
			"C9":  {34, 14, 34, 128, 12, 19},
			"C10": {17, 4, 17, 28, 2, 2},
			"B1":  {27, 8, 27, 142, 94, 12},
			"B2":  {21, 7, 21, 40, 1, 3},
			"B3":  {21, 5, 21, 97, 47, 7},
			"B4":  {32, 13, 32, 90, 9, 25},
			"B5":  {21, 6, 21, 54, 2, 5},
			"B6":  {21, 7, 21, 54, 2, 5},
			"B7":  {19, 4, 19, 43, 4, 4},
			"B8":  {25, 10, 25, 88, 10, 15},
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

// TestLRBColdRequests pins lrb_cold_wan's request count in process: the 32
// LargeRDFBench queries at Scale 3, each on cold caches, cost exactly one
// source-selection request per endpoint (13) and 752 requests in all.
func TestLRBColdRequests(t *testing.T) {
	datasets := GenerateLRB(LRBConfig{Scale: 3, Seed: 20170514})
	fed, err := NewFed(datasets, InProcess())
	if err != nil {
		t.Fatal(err)
	}
	eng := fed.NewLusail(core.DefaultOptions())
	var total int64
	for _, q := range LRBQueries() {
		eng.ClearCaches()
		before := fed.Metrics.Snapshot()
		if _, _, err := eng.QueryString(context.Background(), q.Text); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		d := fed.Metrics.Snapshot().Sub(before)
		if d.Asks != int64(len(datasets)) {
			t.Errorf("%s: %d source-selection requests, want one per endpoint (%d)", q.Name, d.Asks, len(datasets))
		}
		total += d.Requests
	}
	if total != 752 {
		t.Errorf("%d requests over the %d queries, pinned 752", total, len(LRBQueries()))
	}
}
