package client

import (
	"context"
	"sync/atomic"
	"time"

	"lusail/internal/obs"
	"lusail/internal/sparql"
)

// Metrics accumulates communication-cost counters for one endpoint or a
// whole federation. All fields are updated atomically.
//
// Metrics predates the obs registry and is kept as a compatibility shim for
// the benchmark harness's delta-based accounting (Snapshot/Sub); new code
// should read the per-endpoint counters and histograms that Instrumented
// reports into its obs.Registry instead.
type Metrics struct {
	Requests atomic.Int64 // number of queries sent (ASK + SELECT)
	Asks     atomic.Int64 // subset of Requests that were ASK queries or batches of them
	Rows     atomic.Int64 // total solution rows received
	Bytes    atomic.Int64 // estimated payload bytes received
	Errors   atomic.Int64 // failed requests
}

// Snapshot is a plain-value copy of Metrics.
type Snapshot struct {
	Requests, Asks, Rows, Bytes, Errors int64
}

// Snapshot returns the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Requests: m.Requests.Load(),
		Asks:     m.Asks.Load(),
		Rows:     m.Rows.Load(),
		Bytes:    m.Bytes.Load(),
		Errors:   m.Errors.Load(),
	}
}

// Reset zeroes all counters.
func (m *Metrics) Reset() {
	m.Requests.Store(0)
	m.Asks.Store(0)
	m.Rows.Store(0)
	m.Bytes.Store(0)
	m.Errors.Store(0)
}

// Sub returns the difference between this snapshot and an earlier one.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	return Snapshot{
		Requests: s.Requests - earlier.Requests,
		Asks:     s.Asks - earlier.Asks,
		Rows:     s.Rows - earlier.Rows,
		Bytes:    s.Bytes - earlier.Bytes,
		Errors:   s.Errors - earlier.Errors,
	}
}

// Instrumented wraps an endpoint and records every query twice: into the
// legacy Metrics shim (when non-nil) and into an obs.Registry as
// per-endpoint labeled counters (requests, errors, ASKs) and histograms
// (request latency, result rows, payload bytes).
type Instrumented struct {
	inner   Endpoint
	metrics *Metrics

	requests *obs.Counter
	errors   *obs.Counter
	asks     *obs.Counter
	latency  *obs.Histogram
	rows     *obs.Histogram
	bytes    *obs.Histogram
}

// NewInstrumented wraps ep so that all traffic is recorded in m and in the
// default obs registry. Multiple endpoints may share one Metrics to get
// federation-wide totals; m may be nil to skip the shim.
func NewInstrumented(ep Endpoint, m *Metrics) *Instrumented {
	return NewInstrumentedWith(ep, m, obs.Default())
}

// NewInstrumentedWith is NewInstrumented reporting into a specific
// registry (tests and tools that need isolated metrics).
func NewInstrumentedWith(ep Endpoint, m *Metrics, reg *obs.Registry) *Instrumented {
	label := obs.L("endpoint", ep.Name())
	return &Instrumented{
		inner:    ep,
		metrics:  m,
		requests: reg.Counter(obs.MetricRequests, "queries sent per endpoint (ASK + SELECT)", label),
		errors:   reg.Counter(obs.MetricErrors, "failed requests per endpoint", label),
		asks:     reg.Counter(obs.MetricAsks, "ASK queries (or batches of them) per endpoint", label),
		latency:  reg.Histogram(obs.MetricRequestSeconds, "request latency per endpoint", obs.LatencyBuckets, label),
		rows:     reg.Histogram(obs.MetricResultRows, "solution rows per response", obs.RowBuckets, label),
		bytes:    reg.Histogram(obs.MetricResultBytes, "estimated payload bytes per response", obs.ByteBuckets, label),
	}
}

// Name implements Endpoint.
func (e *Instrumented) Name() string { return e.inner.Name() }

// Unwrap returns the wrapped endpoint.
func (e *Instrumented) Unwrap() Endpoint { return e.inner }

// Metrics returns the metrics sink (possibly nil).
func (e *Instrumented) Metrics() *Metrics { return e.metrics }

// Query implements Endpoint.
func (e *Instrumented) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return Collect(ctx, e, query)
}

// Latency wraps an endpoint and injects network delay: a fixed round-trip
// time per request plus a transfer time proportional to the response size.
// It reproduces the geo-distributed setting of the paper's Section 5.3.
type Latency struct {
	inner Endpoint
	// RTT is the request round-trip latency added to every query.
	RTT time.Duration
	// BytesPerSecond is the simulated downstream bandwidth; zero disables
	// the bandwidth term.
	BytesPerSecond int64
}

// NewLatency wraps ep with the given round-trip time and bandwidth.
func NewLatency(ep Endpoint, rtt time.Duration, bytesPerSecond int64) *Latency {
	return &Latency{inner: ep, RTT: rtt, BytesPerSecond: bytesPerSecond}
}

// Name implements Endpoint.
func (e *Latency) Name() string { return e.inner.Name() }

// Unwrap returns the wrapped endpoint.
func (e *Latency) Unwrap() Endpoint { return e.inner }

// Query implements Endpoint.
func (e *Latency) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return Collect(ctx, e, query)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
