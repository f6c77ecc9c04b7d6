package core_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lusail/internal/bench"
	"lusail/internal/core"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

// TestPlanGolden pins what planning decides — decompositions, GJVs, SAPE
// estimates and delay flags — for LUBM Q1–Q4 over 2 and 4 universities
// and the 32 LargeRDFBench queries at scales 1 and 3, under the default
// options, with a catalog, catalog-only, and with SAPE off. Each query is
// planned cold, then warm: a plan built from cached facts must equal the
// cold one. How many requests planning takes may change; what it decides
// may not.
func TestPlanGolden(t *testing.T) {
	ctx := context.Background()
	var out strings.Builder
	for _, fx := range []struct {
		name     string
		datasets []bench.Dataset
		queries  []bench.Query
	}{
		{"lubm2", bench.GenerateLUBM(bench.DefaultLUBM(2)), bench.LUBMQueries()},
		{"lubm4", bench.GenerateLUBM(bench.DefaultLUBM(4)), bench.LUBMQueries()},
		{"lrb", bench.GenerateLRB(bench.LRBConfig{Scale: 1, Seed: 11}), bench.LRBQueries()},
		{"lrb3", bench.GenerateLRB(bench.LRBConfig{Scale: 3, Seed: 20170514}), bench.LRBQueries()},
	} {
		fed, err := bench.NewFed(fx.datasets, bench.InProcess())
		if err != nil {
			t.Fatal(err)
		}
		cat, err := fed.EnsureCatalog(ctx)
		if err != nil {
			t.Fatal(err)
		}
		modes := []struct {
			name string
			opts func(*core.Options)
		}{
			{"default", func(*core.Options) {}},
			{"catalog", func(o *core.Options) { o.Catalog = cat }},
			{"catalog-only", func(o *core.Options) { o.Catalog, o.CatalogOnly = cat, true }},
			{"lade", func(o *core.Options) { o.DisableSAPE = true }},
		}
		for _, m := range modes {
			opts := core.DefaultOptions()
			m.opts(&opts)
			eng := fed.NewLusail(opts)
			for _, q := range fx.queries {
				eng.ClearCaches()
				var runs [2]string
				for i := range runs {
					p, err := eng.PlanString(ctx, q.Text)
					if err != nil {
						t.Fatalf("%s %s %s: %v", fx.name, m.name, q.Name, err)
					}
					runs[i] = core.PlanOutline(eng, p)
				}
				if runs[0] != runs[1] {
					t.Errorf("%s %s %s: the warm plan differs from the cold one:\ncold:\n%swarm:\n%s", fx.name, m.name, q.Name, runs[0], runs[1])
				}
				fmt.Fprintf(&out, "== %s %s %s\n%s", fx.name, m.name, q.Name, runs[0])
			}
		}
	}
	path := filepath.Join("testdata", "plans.golden")
	if *updatePlans {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("plans differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plans differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
