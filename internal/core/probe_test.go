package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"lusail/internal/client"
	"lusail/internal/federation"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
)

// noBatches wraps an endpoint that does not implement the batched probe
// forms — a SELECT of EXISTS cells, a SELECT of several COUNT sub-selects —
// and counts what it was sent.
type noBatches struct {
	inner                  client.Endpoint
	rejected, asks, counts atomic.Int64
}

func (e *noBatches) Name() string { return e.inner.Name() }
func (e *noBatches) Query(ctx context.Context, query string) (*sparql.Results, error) {
	switch {
	case strings.Contains(query, "BIND(EXISTS"), strings.Count(query, "COUNT(") > 1:
		e.rejected.Add(1)
		return nil, fmt.Errorf("endpoint %s: unsupported query form", e.Name())
	case sparql.IsAsk(query):
		e.asks.Add(1)
	case strings.Contains(query, "COUNT("):
		e.counts.Add(1)
	}
	return e.inner.Query(ctx, query)
}

// down fails every request.
type down struct{ name string }

func (e down) Name() string { return e.name }
func (e down) Query(context.Context, string) (*sparql.Results, error) {
	return nil, fmt.Errorf("endpoint %s: connection refused", e.name)
}

func warningSet(ws []resilience.Warning) []string {
	var out []string
	for _, w := range ws {
		out = append(out, fmt.Sprintf("%s %s %s", w.Endpoint, w.Phase, w.Message))
	}
	sort.Strings(out)
	return out
}

// An endpoint that rejects the batched probe forms is re-probed one ASK and
// one COUNT per pattern: the answer and the Degrade warnings are those of
// an endpoint that accepts the batches, here with a dead member in the
// federation so there are warnings to compare.
func TestRejectedBatchesFallBackPerPattern(t *testing.T) {
	eps, oracle := paperFederation(true)
	opts := DefaultOptions()
	opts.OnEndpointFailure = Degrade
	batched := MustNew(federation.MustNew(eps[0], eps[1], down{"dead"}), opts)
	wrapped := []*noBatches{{inner: eps[0]}, {inner: eps[1]}}
	fallback := MustNew(federation.MustNew(wrapped[0], wrapped[1], down{"dead"}), opts)

	want := oracleResults(t, oracle, qa)
	got, gotProf := runLusail(t, batched, qa)
	assertSameResults(t, got, want)
	fb, fbProf := runLusail(t, fallback, qa)
	assertSameResults(t, fb, want)
	if len(gotProf.Warnings) == 0 {
		t.Fatal("no warnings about the dead endpoint; fixture broken")
	}
	if g, f := warningSet(gotProf.Warnings), warningSet(fbProf.Warnings); !reflect.DeepEqual(g, f) {
		t.Errorf("warnings differ:\nbatched  %q\nfallback %q", g, f)
	}
	if gotProf.CountProbes != fbProf.CountProbes {
		t.Errorf("CountProbes = %d batched, %d per pattern", gotProf.CountProbes, fbProf.CountProbes)
	}
	for _, w := range wrapped {
		if w.rejected.Load() == 0 || w.asks.Load() < 2 || w.counts.Load() < 2 {
			t.Errorf("%s: %d batches rejected, then %d ASKs and %d COUNTs; want batches, then one probe per pattern",
				w.Name(), w.rejected.Load(), w.asks.Load(), w.counts.Load())
		}
	}
}

// Faults injected into batched probes (and everything else) under Degrade
// leave a sound answer: a subset of the oracle's rows, warned whenever it
// is short, or a typed error.
func TestFaultyBatchesDegradeToWarnedSubset(t *testing.T) {
	eps, oracle := paperFederation(true)
	want := oracleResults(t, oracle, qa)
	opts := DefaultOptions()
	opts.OnEndpointFailure = Degrade
	warned := 0
	for seed := uint64(1); seed <= 40; seed++ {
		fed := federation.MustNew(
			resilience.WithFaults(eps[0], resilience.FaultSpec{ErrorRate: 0.2, Seed: seed}),
			resilience.WithFaults(eps[1], resilience.FaultSpec{ErrorRate: 0.2, Seed: seed + 1000}))
		res, prof, err := MustNew(fed, opts).QueryString(context.Background(), qa)
		if err != nil {
			continue // every probe of some pattern failed: a typed error, not a short answer
		}
		res.Rows = sparql.DistinctRows(res.Rows)
		res.Sort()
		oracleRows := map[string]bool{}
		for _, r := range want.Rows {
			oracleRows[fmt.Sprint(r)] = true
		}
		for _, r := range res.Rows {
			if !oracleRows[fmt.Sprint(r)] {
				t.Errorf("seed %d: row %v is not in the oracle's answer", seed, r)
			}
		}
		if len(prof.Warnings) > 0 {
			warned++
		} else if len(res.Rows) != len(want.Rows) {
			t.Errorf("seed %d: %d of %d rows and no warning", seed, len(res.Rows), len(want.Rows))
		}
	}
	if warned == 0 {
		t.Fatal("no run absorbed a fault; fixture broken")
	}
}
