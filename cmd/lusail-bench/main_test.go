package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"lusail/internal/bench"
)

// TestUnknownExperiment pins the usage contract: an ID outside the
// experiment table — a typo or a removed experiment — exits 2 before any
// experiment runs and lists the valid IDs, which are unique.
func TestUnknownExperiment(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range bench.Experiments {
		if seen[e.ID] {
			t.Errorf("experiment ID %q appears twice", e.ID)
		}
		seen[e.ID] = true
	}
	for _, list := range []string{"fig99", "pipeline", "table1,diskscale", "service,all"} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-experiment", list}, &stdout, &stderr); code != 2 {
			t.Errorf("-experiment %s: exit %d, want 2", list, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-experiment %s ran something:\n%s", list, stdout.String())
		}
		for _, e := range bench.Experiments {
			if !strings.Contains(stderr.String(), e.ID) {
				t.Errorf("-experiment %s: usage error %q does not list %s", list, stderr.String(), e.ID)
			}
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(bench.Experiments) {
		t.Fatalf("all = %d experiments, %v; want %d", len(all), err, len(bench.Experiments))
	}
	// A list runs in table order, each experiment once.
	got, err := selectExperiments(" fig9 ,table1,fig9")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "table1" || got[1].ID != "fig9" {
		t.Errorf("selected %d experiments, want table1 then fig9", len(got))
	}
}
