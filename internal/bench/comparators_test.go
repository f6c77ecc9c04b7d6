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
			"Q1": {10, 8, 10, 60, 48, 20},
			"Q2": {10, 8, 10, 56, 44, 12},
			"Q3": {8, 6, 8, 14, 10, 6},
			"Q4": {10, 8, 10, 36, 24, 20},
		}},
		{"lubm4", GenerateLUBM(DefaultLUBM(4)), LUBMQueries(), map[string][6]int64{
			"Q1": {20, 16, 20, 356, 332, 56},
			"Q2": {20, 16, 20, 308, 284, 32},
			"Q3": {16, 12, 16, 40, 32, 12},
			"Q4": {20, 16, 20, 104, 80, 64},
		}},
		{"lrb", GenerateLRB(LRBConfig{Scale: 1, Seed: 11}), LRBQueries(), map[string][6]int64{
			"S1":  {17, 4, 17, 41, 2, 3},
			"S2":  {20, 7, 20, 46, 2, 7},
			"S3":  {15, 2, 15, 27, 1, 4},
			"S4":  {16, 3, 16, 27, 1, 2},
			"S5":  {20, 7, 20, 46, 2, 7},
			"S6":  {17, 4, 17, 40, 1, 3},
			"S7":  {20, 7, 20, 52, 3, 13},
			"S8":  {15, 2, 15, 27, 1, 2},
			"S9":  {17, 4, 17, 41, 2, 3},
			"S10": {17, 4, 17, 43, 4, 4},
			"S11": {16, 3, 16, 27, 1, 2},
			"S12": {20, 7, 20, 46, 2, 7},
			"S13": {21, 8, 21, 75, 3, 15},
			"S14": {21, 8, 21, 95, 9, 15},
			"C1":  {22, 9, 22, 100, 9, 28},
			"C2":  {22, 9, 22, 73, 4, 9},
			"C3":  {27, 14, 27, 143, 9, 39},
			"C4":  {15, 2, 15, 53, 1, 9},
			"C5":  {17, 4, 17, 54, 2, 6},
			"C6":  {17, 4, 17, 28, 2, 2},
			"C7":  {22, 9, 22, 135, 70, 9},
			"C8":  {17, 4, 17, 83, 5, 13},
			"C9":  {22, 9, 22, 128, 12, 19},
			"C10": {17, 4, 17, 28, 2, 2},
			"B1":  {21, 8, 21, 142, 94, 12},
			"B2":  {15, 2, 15, 40, 1, 3},
			"B3":  {18, 5, 18, 97, 47, 7},
			"B4":  {21, 8, 21, 90, 9, 25},
			"B5":  {17, 4, 17, 54, 2, 5},
			"B6":  {17, 4, 17, 54, 2, 5},
			"B7":  {16, 3, 16, 43, 4, 4},
			"B8":  {16, 3, 16, 88, 10, 15},
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
// source-selection request per endpoint (13) and 599 requests in all.
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
	if total != 599 {
		t.Errorf("%d requests over the %d queries, pinned 599", total, len(LRBQueries()))
	}
}

// TestLUBMWarmRequests: the second execution of each LUBM query on a warm
// Lusail engine sends no planning request — relevance, counts and check
// verdicts are all cached — so it costs the first run's requests less the
// first run's planning requests.
func TestLUBMWarmRequests(t *testing.T) {
	fed, err := NewFed(GenerateLUBM(DefaultLUBM(2)), InProcess())
	if err != nil {
		t.Fatal(err)
	}
	eng := fed.NewLusail(core.DefaultOptions())
	ctx := context.Background()
	for _, q := range LUBMQueries() {
		before := fed.Metrics.Snapshot()
		p, err := eng.PlanString(ctx, q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		planning := fed.Metrics.Snapshot().Sub(before).Requests
		rows, err := eng.ExecutePlanStream(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil || rows.Err() != nil {
			t.Fatalf("%s: %v %v", q.Name, rows.Err(), err)
		}
		first := fed.Metrics.Snapshot().Sub(before).Requests

		before = fed.Metrics.Snapshot()
		_, prof, err := eng.QueryString(ctx, q.Text)
		if err != nil {
			t.Fatalf("%s warm: %v", q.Name, err)
		}
		d := fed.Metrics.Snapshot().Sub(before)
		if d.Asks != 0 || prof.CountProbes != 0 || prof.ChecksIssued != 0 {
			t.Errorf("%s warm: %d source-selection requests, %d COUNT cells, %d checks; want none",
				q.Name, d.Asks, prof.CountProbes, prof.ChecksIssued)
		}
		if d.Requests != first-planning {
			t.Errorf("%s warm: %d requests, want %d (first run %d, of which %d planning)",
				q.Name, d.Requests, first-planning, first, planning)
		}
	}
}
