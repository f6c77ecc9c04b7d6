package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"lusail/internal/client"
	"lusail/internal/federation"
	"lusail/internal/qplan"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
)

// noBatches wraps an endpoint that does not implement the batched probe
// forms — a SELECT of several COUNT sub-selects, a SELECT of EXISTS cells —
// and counts what it was sent.
type noBatches struct {
	inner                          client.Endpoint
	rejected, asks, counts, checks atomic.Int64
}

func (e *noBatches) Name() string { return e.inner.Name() }
func (e *noBatches) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	switch {
	case strings.Contains(query, "BIND(EXISTS"), strings.Count(query, "COUNT(") > 1:
		e.rejected.Add(1)
		return nil, fmt.Errorf("endpoint %s: unsupported query form", e.Name())
	case sparql.IsAsk(query):
		e.asks.Add(1)
	case strings.Contains(query, "COUNT("):
		e.counts.Add(1)
	case strings.Contains(query, "NOT EXISTS"):
		e.checks.Add(1)
	}
	return e.inner.QueryStream(ctx, query)
}
func (e *noBatches) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return client.Collect(ctx, e, query)
}

// down fails every request.
type down struct{ name string }

func (e down) Name() string { return e.name }
func (e down) QueryStream(context.Context, string) (sparql.RowReader, error) {
	return nil, fmt.Errorf("endpoint %s: connection refused", e.name)
}
func (e down) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return client.Collect(ctx, e, query)
}

func warningSet(ws []resilience.Warning) []string {
	var out []string
	for _, w := range ws {
		out = append(out, fmt.Sprintf("%s %s %s", w.Endpoint, w.Phase, w.Message))
	}
	sort.Strings(out)
	return out
}

// An endpoint that rejects the batched forms of both planning rounds is
// asked again one plain COUNT per pattern, with no ASK; the checks that
// rode in its first batch go to the second round, whose batch it rejects
// too, and then one check query per check: the answer and the Degrade
// warnings are those of an endpoint that accepts the batches, here with a
// dead member in the federation so there are warnings to compare.
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
		// qa has 8 patterns, no filters, and 12 checks to ask at each
		// endpoint.
		if w.rejected.Load() != 2 || w.asks.Load() != 0 || w.counts.Load() != 8 || w.checks.Load() != 12 {
			t.Errorf("%s: %d batches rejected, then %d ASKs, %d COUNTs and %d checks; want one batch per round, then no ASK, 8 COUNTs and 12 checks",
				w.Name(), w.rejected.Load(), w.asks.Load(), w.counts.Load(), w.checks.Load())
		}
	}
}

// Faults injected into the batches of both planning rounds (and everything
// else) under Degrade leave a sound answer: a subset of the oracle's rows,
// warned whenever it is short, or a typed error. The second round runs only
// after a first-round batch failed, so it takes more seeds than the first
// to see faults there.
func TestFaultyBatchesDegradeToWarnedSubset(t *testing.T) {
	eps, oracle := paperFederation(true)
	want := oracleResults(t, oracle, qa)
	opts := DefaultOptions()
	opts.OnEndpointFailure = Degrade
	warned := 0
	phases := map[client.Phase]bool{}
	for seed := uint64(1); seed <= 120; seed++ {
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
		for _, w := range prof.Warnings {
			phases[w.Phase] = true
		}
		if len(prof.Warnings) > 0 {
			warned++
		} else if len(res.Rows) != len(want.Rows) {
			t.Errorf("seed %d: %d of %d rows and no warning", seed, len(res.Rows), len(want.Rows))
		}
	}
	if warned == 0 || !phases[client.PhaseSourceSelection] || !phases[client.PhaseCheck] {
		t.Fatalf("%d runs absorbed a fault, in phases %v; want faults in both planning rounds", warned, phases)
	}
}

// A cold query plans in one round trip: one request per endpoint of COUNT
// cells, with the checks and the COUNT of the pattern that has a pushed
// filter, counted under it, riding along. Warm, it sends nothing: the
// filtered COUNT is a cached fact like the rest.
func TestPlanningInOneRound(t *testing.T) {
	eps, _ := paperFederation(false)
	var m client.Metrics
	var list []client.Endpoint
	for _, ep := range eps {
		list = append(list, client.NewInstrumented(ep, &m))
	}
	e := MustNew(federation.MustNew(list...), DefaultOptions())
	q := sparql.MustParse(`PREFIX ub: <http://lubm.org/ub#>
		SELECT ?S ?A WHERE {
			?S ub:advisor ?P .
			?P ub:PhDDegreeFrom ?U .
			?U ub:address ?A .
			FILTER(STR(?A) != "AddrB")
		}`)
	for run, want := range []struct{ requests, asks, counts int }{{2, 2, 3*2 + 2}, {0, 0, 0}} {
		before := m.Snapshot()
		var prof Profile
		if _, err := e.plan(context.Background(), q, &prof); err != nil {
			t.Fatal(err)
		}
		d := m.Snapshot().Sub(before)
		if d.Requests != int64(want.requests) || d.Asks != int64(want.asks) || prof.CountProbes != want.counts || run > 0 && prof.ChecksIssued > 0 {
			t.Errorf("run %d: %d requests, %d source selection, %d COUNT cells, %d checks; want %d, %d, %d and no checks when warm",
				run, d.Requests, d.Asks, prof.CountProbes, prof.ChecksIssued, want.requests, want.asks, want.counts)
		}
	}

	branches, err := qplan.Normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := e.selectSources(context.Background(), branches, &Profile{})
	if err != nil {
		t.Fatal(err)
	}
	st := facts[0].stats
	if _, err := e.detectBranch(context.Background(), branches[0], facts[0].sources, st); err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"ep1": 1, "ep2": 0}; !reflect.DeepEqual(st.card[2], want) {
		t.Errorf("filtered counts = %v, want %v", st.card[2], want)
	}
}

// failChecks fails the first-round batch that carries check cells and,
// with all set, every request that asks a check.
type failChecks struct {
	client.Endpoint
	all bool
}

func (e failChecks) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	if strings.Contains(query, "EXISTS") && (e.all || strings.Contains(query, client.SourceVar+"0")) {
		return nil, fmt.Errorf("endpoint %s: request failed", e.Name())
	}
	return e.Endpoint.QueryStream(ctx, query)
}

// A first-round batch that fails at one endpoint loses the checks riding
// in it, never decides them: the second round asks them again, so the
// plan is the healthy one. When the endpoint fails those checks too, a
// missing answer makes its variable global, with a warning under Degrade,
// and FailFast returns a typed error.
func TestFailedFusedBatchNeverDecides(t *testing.T) {
	eps, oracle := paperFederation(false)
	want := oracleResults(t, oracle, qa)
	q := sparql.MustParse(qa)
	healthy := MustNew(federation.MustNew(eps[0], eps[1]), DefaultOptions())
	hp, err := healthy.Plan(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan, wantGJVs := PlanOutline(healthy, hp), hp.GJVs()
	if len(wantGJVs) >= 3 {
		t.Fatalf("GJVs %v: the fixture needs variables that the checks keep local", wantGJVs)
	}
	for _, mode := range []FailureMode{FailFast, Degrade} {
		opts := DefaultOptions()
		opts.OnEndpointFailure = mode

		e := MustNew(federation.MustNew(eps[0], failChecks{Endpoint: eps[1]}), opts)
		ctx := resilience.WithWarnings(context.Background())
		p, err := e.Plan(ctx, q)
		if err != nil {
			t.Fatalf("%v, fused batch failed: %v", mode, err)
		}
		if got := PlanOutline(e, p); got != wantPlan {
			t.Errorf("%v, fused batch failed: plan\n%s\nwant\n%s", mode, got, wantPlan)
		}
		if ws := resilience.TakeWarnings(ctx); len(ws) != 0 {
			t.Errorf("%v, fused batch failed: warnings %v; a failed batch that was asked again is not degraded", mode, ws)
		}

		e = MustNew(federation.MustNew(eps[0], failChecks{Endpoint: eps[1], all: true}), opts)
		res, prof, err := e.QueryString(context.Background(), qa)
		if mode == FailFast {
			var epErr *client.EndpointError
			if !errors.As(err, &epErr) || epErr.Endpoint != "ep2" || epErr.Phase != client.PhaseCheck {
				t.Errorf("FailFast, checks failed: error %v, want a check-phase EndpointError from ep2", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Degrade, checks failed: %v", err)
		}
		if len(prof.Warnings) == 0 || prof.Warnings[0].Phase != client.PhaseCheck {
			t.Errorf("Degrade, checks failed: warnings %v, want check-phase warnings", prof.Warnings)
		}
		if len(prof.GJVs) <= len(wantGJVs) || slices.ContainsFunc(wantGJVs, func(v string) bool { return !slices.Contains(prof.GJVs, v) }) {
			t.Errorf("Degrade, checks failed: GJVs %v, healthy %v; the unanswered checks must make their variables global", prof.GJVs, wantGJVs)
		}
		res.Rows = sparql.DistinctRows(res.Rows)
		res.Sort()
		if !reflect.DeepEqual(res.Rows, want.Rows) {
			t.Errorf("Degrade, checks failed: %d rows, want the oracle's %d", len(res.Rows), len(want.Rows))
		}
	}
}
