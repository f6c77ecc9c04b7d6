package bench

import (
	"context"
	"reflect"
	"testing"

	"lusail/internal/core"
)

// TestCatalogProbeFreeLUBM is the end-to-end acceptance check for the
// endpoint catalog: with a fresh catalog, a constant-predicate LUBM query
// runs with zero ASK probes and zero COUNT probes, while the probe-based
// engine issues both — and both report the same result count.
func TestCatalogProbeFreeLUBM(t *testing.T) {
	fed, err := NewFed(GenerateLUBM(DefaultLUBM(2)), InProcess())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.EnsureCatalog(context.Background()); err != nil {
		t.Fatal(err)
	}
	run := RunOptions{Repeats: 1} // cold run: warm caches would hide probes
	for _, q := range LUBMQueries() {
		on := fed.Run(context.Background(), LusailCatalog, q.Text, run)
		if on.Err != nil {
			t.Fatalf("%s catalog-on: %v", q.Name, on.Err)
		}
		if on.Asks != 0 {
			t.Errorf("%s: catalog-on issued %d ASK probes, want 0", q.Name, on.Asks)
		}
		if on.CountProbes != 0 {
			t.Errorf("%s: catalog-on issued %d COUNT probes, want 0", q.Name, on.CountProbes)
		}
		if on.CatalogHits == 0 {
			t.Errorf("%s: catalog-on recorded no catalog hits", q.Name)
		}

		off := fed.Run(context.Background(), Lusail, q.Text, run)
		if off.Err != nil {
			t.Fatalf("%s catalog-off: %v", q.Name, off.Err)
		}
		if off.Asks == 0 {
			t.Errorf("%s: probe path issued no ASK probes; fixture broken", q.Name)
		}
		if off.CountProbes == 0 {
			t.Errorf("%s: probe path issued no COUNT probes; fixture broken", q.Name)
		}
		if on.Results != off.Results {
			t.Errorf("%s: catalog-on found %d results, probe path %d", q.Name, on.Results, off.Results)
		}
	}
}

// TestCatalogRowsMatchProbePath asserts the stronger half of the catalog
// contract: the rows — not just their count — are identical with the
// catalog on and off, for every LUBM query.
func TestCatalogRowsMatchProbePath(t *testing.T) {
	fed, err := NewFed(GenerateLUBM(DefaultLUBM(2)), InProcess())
	if err != nil {
		t.Fatal(err)
	}
	st, err := fed.EnsureCatalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	onOpts := core.DefaultOptions()
	onOpts.Catalog = st
	on := fed.NewLusail(onOpts)
	off := fed.NewLusail(core.DefaultOptions())

	ctx := context.Background()
	for _, q := range LUBMQueries() {
		got, _, err := on.QueryString(ctx, q.Text)
		if err != nil {
			t.Fatalf("%s catalog-on: %v", q.Name, err)
		}
		want, _, err := off.QueryString(ctx, q.Text)
		if err != nil {
			t.Fatalf("%s catalog-off: %v", q.Name, err)
		}
		got.Sort()
		want.Sort()
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: rows diverge between catalog and probe paths", q.Name)
		}
	}
}

// TestCatalogProbesExperiment smoke-tests the experiment driver at tiny
// scale so `lusail-bench -experiment catalog` stays runnable.
func TestCatalogProbesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver; skipped in -short")
	}
	opts := fastExp()
	ts, err := CatalogProbes(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := ts[0]
	if len(tbl.Rows) != len(LUBMQueries()) {
		t.Fatalf("got %d rows, want %d", len(tbl.Rows), len(LUBMQueries()))
	}
	// The on:ASK and on:COUNT columns (indexes 8 and 9) must read 0.
	for _, row := range tbl.Rows {
		if row[8] != "0" || row[9] != "0" {
			t.Errorf("%s: catalog-on probes = ASK %s, COUNT %s; want 0, 0", row[0], row[8], row[9])
		}
	}
}
