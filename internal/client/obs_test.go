package client

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lusail/internal/obs"
	"lusail/internal/sparql"
)

// failEvery fails every n-th request before its head.
type failEvery struct {
	Endpoint
	n        int64
	requests atomic.Int64
}

func (e *failEvery) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	if e.requests.Add(1)%e.n == 0 {
		return nil, fmt.Errorf("endpoint %s: injected failure", e.Name())
	}
	return e.Endpoint.QueryStream(ctx, query)
}

// TestObsConcurrentInstrumentedRetry hammers one Instrumented endpoint over
// a fake that fails every 5th request from many goroutines; run with -race
// to verify the obs registry and the endpoint wrappers are
// concurrency-safe, then check that every counter agrees on the number of
// requests and failures.
func TestObsConcurrentInstrumentedRetry(t *testing.T) {
	reg := obs.NewRegistry()
	var m Metrics
	inst := NewInstrumentedWith(&failEvery{Endpoint: testEP(), n: 5}, &m, reg)

	const goroutines, perG = 16, 25
	ctx := context.Background()
	var failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := inst.Query(ctx, `ASK { ?s ?p ?o }`)
				if err != nil {
					failed.Add(1)
					continue
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
	errs := failed.Load()
	if errs != total/5 {
		t.Errorf("%d requests failed, want %d", errs, total/5)
	}
	if s := m.Snapshot(); s.Requests != total || s.Errors != errs || s.Asks != total-errs {
		t.Errorf("legacy snapshot = %+v, want %d requests, %d errors, %d asks", s, total, errs, total-errs)
	}
	label := obs.L("endpoint", "ep")
	if v := reg.Counter(obs.MetricRequests, "", label).Value(); v != total {
		t.Errorf("registry requests = %v, want %d", v, total)
	}
	if v := reg.Counter(obs.MetricErrors, "", label).Value(); v != errs {
		t.Errorf("registry errors = %v, want %d", v, errs)
	}
	if v := reg.Counter(obs.MetricAsks, "", label).Value(); v != total-errs {
		t.Errorf("registry asks = %v, want %d", v, total-errs)
	}
	if n := reg.Histogram(obs.MetricRequestSeconds, "", obs.LatencyBuckets, label).Count(); n != total-errs {
		t.Errorf("latency observations = %d, want %d", n, total-errs)
	}
}
