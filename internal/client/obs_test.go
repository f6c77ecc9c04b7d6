package client

import (
	"context"
	"sync"
	"testing"
	"time"

	"lusail/internal/obs"
)

// TestObsConcurrentInstrumentedRetry hammers one Instrumented+Retry+Flaky
// stack from many goroutines; run with -race to verify the obs registry and
// the endpoint wrappers are concurrency-safe, then check that every counter
// agrees on the number of logical queries.
func TestObsConcurrentInstrumentedRetry(t *testing.T) {
	reg := obs.NewRegistry()
	var m Metrics
	flaky := NewFlaky(testEP(), 5) // every 5th request fails once, then retried
	// The other goroutines advance the shared request counter between one
	// query's attempts, so each attempt fails with probability about 1/5:
	// with 3 attempts some query exhausted them in ~15% of runs, with 8 in
	// about one run in a thousand.
	retry := NewRetry(flaky, 8, time.Microsecond)
	inst := NewInstrumentedWith(retry, &m, reg)

	const goroutines, perG = 16, 25
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := inst.Query(ctx, `ASK { ?s ?p ?o }`)
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if !res.Boolean {
					t.Error("ASK = false, want true")
					return
				}
			}
		}()
	}
	wg.Wait()

	const total = goroutines * perG
	if s := m.Snapshot(); s.Requests != total || s.Errors != 0 || s.Asks != total {
		t.Errorf("legacy snapshot = %+v, want %d requests/asks, 0 errors", s, total)
	}
	label := obs.L("endpoint", "ep")
	if v := reg.Counter(obs.MetricRequests, "", label).Value(); v != total {
		t.Errorf("registry requests = %v, want %d", v, total)
	}
	if v := reg.Counter(obs.MetricAsks, "", label).Value(); v != total {
		t.Errorf("registry asks = %v, want %d", v, total)
	}
	if n := reg.Histogram(obs.MetricRequestSeconds, "", obs.LatencyBuckets, label).Count(); n != total {
		t.Errorf("latency observations = %d, want %d", n, total)
	}
	if flaky.Failures() == 0 {
		t.Error("flaky endpoint never failed; retry path untested")
	}
}

// TestRetryBackoffCap verifies the full-jitter backoff is capped: with a
// nominal backoff of an hour but MaxBackoff of a few milliseconds, an
// all-failing endpoint must exhaust its attempts almost immediately.
func TestRetryBackoffCap(t *testing.T) {
	r := NewRetry(NewFlaky(testEP(), 1), 4, time.Hour)
	r.MaxBackoff = 5 * time.Millisecond

	start := time.Now()
	_, err := r.Query(context.Background(), `ASK { ?s ?p ?o }`)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("all-failing endpoint should error")
	}
	if elapsed > time.Second {
		t.Errorf("4 attempts took %v; MaxBackoff cap not applied", elapsed)
	}
}

// TestJitterBounds checks the full-jitter draw stays within [0, d].
func TestJitterBounds(t *testing.T) {
	if jitter(0) != 0 || jitter(-time.Second) != 0 {
		t.Error("jitter of non-positive duration should be 0")
	}
	const d = 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		if j := jitter(d); j < 0 || j > d {
			t.Fatalf("jitter(%v) = %v, out of [0, %v]", d, j, d)
		}
	}
}
