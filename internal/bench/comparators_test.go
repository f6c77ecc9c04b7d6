package bench

import (
	"context"
	"testing"

	"lusail/internal/core"
	"lusail/internal/obs"
)

// TestRequestsPinned pins the request count of every compared system on
// every fig9 (LUBM, 2 and 4 endpoints) and fig10 (LargeRDFBench) query to
// the numbers captured before the three comparator engines were folded
// into internal/baseline over the shared catalog. Request counts are
// deterministic, so they are asserted exactly; the columns follow the
// systems slice below. C3 and C7 each hold two structurally identical
// patterns. FedX looks a whole block up in its ASK cache before it sends
// any ASK, so it asks both copies on every run, whichever ASK ends first;
// C3's FedX cell counts both (156, one round of 13 ASKs more than the
// captured 143).
func TestRequestsPinned(t *testing.T) {
	systems := []EngineKind{Lusail, LusailCatalog, LusailLADE, FedX, HiBISCuS, SPLENDID}
	for _, fx := range []struct {
		name     string
		datasets []Dataset
		queries  []Query
		requests map[string][6]int64
	}{
		{"lubm2", GenerateLUBM(DefaultLUBM(2)), LUBMQueries(), map[string][6]int64{
			"Q1": {8, 8, 8, 60, 48, 20},
			"Q2": {8, 8, 8, 56, 44, 12},
			"Q3": {6, 6, 6, 14, 10, 6},
			"Q4": {8, 8, 8, 36, 24, 20},
		}},
		{"lubm4", GenerateLUBM(DefaultLUBM(4)), LUBMQueries(), map[string][6]int64{
			"Q1": {16, 16, 16, 356, 332, 56},
			"Q2": {16, 16, 16, 308, 284, 32},
			"Q3": {12, 12, 12, 40, 32, 12},
			"Q4": {16, 16, 16, 104, 80, 64},
		}},
		{"lrb", GenerateLRB(LRBConfig{Scale: 1, Seed: 11}), LRBQueries(), map[string][6]int64{
			"S1":  {16, 4, 16, 41, 2, 3},
			"S2":  {20, 7, 20, 46, 2, 7},
			"S3":  {14, 2, 14, 27, 1, 4},
			"S4":  {15, 3, 15, 27, 1, 2},
			"S5":  {20, 7, 20, 46, 2, 7},
			"S6":  {16, 4, 16, 40, 1, 3},
			"S7":  {20, 7, 20, 52, 3, 13},
			"S8":  {14, 2, 14, 27, 1, 2},
			"S9":  {16, 4, 16, 41, 2, 3},
			"S10": {17, 4, 17, 43, 4, 4},
			"S11": {15, 3, 15, 27, 1, 2},
			"S12": {20, 7, 20, 46, 2, 7},
			"S13": {21, 8, 21, 75, 3, 15},
			"S14": {21, 8, 21, 95, 9, 15},
			"C1":  {21, 9, 21, 100, 9, 28},
			"C2":  {22, 9, 22, 73, 4, 9},
			"C3":  {26, 14, 26, 156, 9, 39},
			"C4":  {14, 2, 14, 53, 1, 9},
			"C5":  {15, 4, 15, 54, 2, 6},
			"C6":  {15, 4, 15, 28, 2, 2},
			"C7":  {20, 9, 20, 135, 70, 9},
			"C8":  {16, 4, 16, 83, 5, 13},
			"C9":  {21, 9, 21, 128, 12, 19},
			"C10": {15, 4, 15, 28, 2, 2},
			"B1":  {21, 8, 21, 142, 94, 12},
			"B2":  {14, 2, 14, 40, 1, 3},
			"B3":  {18, 5, 18, 97, 47, 7},
			"B4":  {20, 8, 20, 90, 9, 25},
			"B5":  {15, 4, 15, 54, 2, 5},
			"B6":  {15, 4, 15, 54, 2, 5},
			"B7":  {15, 3, 15, 43, 4, 4},
			"B8":  {15, 3, 15, 88, 10, 15},
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
				if r.Requests != want {
					t.Errorf("%s %s %s: %d requests, pinned %d", fx.name, q.Name, s, r.Requests, want)
				}
			}
		}
	}
}

// TestLRBColdRequests pins lrb_cold_wan's request count in process: the 32
// LargeRDFBench queries at Scale 3, each on cold caches, are planned in one
// round trip, exactly one request per endpoint (13) that answers source
// selection and carries every check and filtered COUNT, and cost 571
// requests in all.
func TestLRBColdRequests(t *testing.T) {
	datasets := GenerateLRB(LRBConfig{Scale: 3, Seed: 20170514})
	fed, err := NewFed(datasets, InProcess())
	if err != nil {
		t.Fatal(err)
	}
	eng := fed.NewLusail(core.DefaultOptions())
	ctx := context.Background()
	var total int64
	for _, q := range LRBQueries() {
		eng.ClearCaches()
		before := fed.Metrics.Snapshot()
		p, err := eng.PlanString(ctx, q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if d := fed.Metrics.Snapshot().Sub(before); d.Requests != int64(len(datasets)) || d.Asks != d.Requests {
			t.Errorf("%s: planning sent %d requests (%d source selection), want one per endpoint (%d)",
				q.Name, d.Requests, d.Asks, len(datasets))
		}
		rows, err := eng.ExecutePlanStream(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil || rows.Err() != nil {
			t.Fatalf("%s: %v %v", q.Name, rows.Err(), err)
		}
		total += fed.Metrics.Snapshot().Sub(before).Requests
	}
	if total != 571 {
		t.Errorf("%d requests over the %d queries, pinned 571", total, len(LRBQueries()))
	}
}

// TestLUBMBulkRequests pins the warm request counts of the LUBM queries at
// the scale of the lubm_bulk_mem benchmark workload (4 universities of 5
// departments, 20 professors and 200 students each). Q2's FullProfessor
// pattern is a Chauvenet outlier below its subqueries' estimates; it runs
// as a scan, so no subquery of Q2 is delayed into a bound join. Q4's
// delayed subquery would be bound to 4,404 ?U bindings in 9 blocks, more
// than the 400 distinct ?U it can answer, so its bound join runs as one
// unbound scan per endpoint and ships no VALUES block.
func TestLUBMBulkRequests(t *testing.T) {
	cfg := LUBMConfig{Universities: 4, DeptsPerUniv: 5, ProfsPerDept: 20, StudentsPerDept: 200, Seed: 20170514, RemoteDegreeRatio: 0.3}
	fed, err := NewFed(GenerateLUBM(cfg), InProcess())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Trace = true
	eng := fed.NewLusail(opts)
	ctx := context.Background()
	want := map[string]int64{"Q1": 12, "Q2": 12, "Q3": 8, "Q4": 12}
	for _, q := range LUBMQueries() {
		if _, _, err := eng.QueryString(ctx, q.Text); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		before := fed.Metrics.Snapshot()
		_, prof, err := eng.QueryString(ctx, q.Text)
		if err != nil {
			t.Fatalf("%s warm: %v", q.Name, err)
		}
		if got := fed.Metrics.Snapshot().Sub(before).Requests; got != want[q.Name] {
			t.Errorf("%s warm: %d requests, pinned %d", q.Name, got, want[q.Name])
		}
		if q.Name == "Q2" && prof.Delayed != 0 {
			t.Errorf("Q2: %d subqueries delayed, want none", prof.Delayed)
		}
		if n := len(obs.FindAll(prof.Trace, "batch")); q.Name == "Q4" && n != 0 {
			t.Errorf("Q4: %d bound-join requests, want none", n)
		}
	}
}

// TestLRBLowOutlierRequests: S1's and S6's most selective patterns (an
// estimate of 1 against scans of 150-368 rows) are Chauvenet outliers
// below the pack, so at Scale 3 both queries run on scans alone and send
// no bound-join request.
func TestLRBLowOutlierRequests(t *testing.T) {
	fed, err := NewFed(GenerateLRB(LRBConfig{Scale: 3, Seed: 20170514}), InProcess())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Trace = true
	eng := fed.NewLusail(opts)
	for _, q := range LRBQueries() {
		if q.Name != "S1" && q.Name != "S6" {
			continue
		}
		_, prof, err := eng.QueryString(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if n := len(obs.FindAll(prof.Trace, "batch")); n != 0 || prof.Delayed != 0 {
			t.Errorf("%s: %d bound-join requests, %d subqueries delayed; want none", q.Name, n, prof.Delayed)
		}
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
