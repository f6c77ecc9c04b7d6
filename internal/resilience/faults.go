package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/sparql"
)

// ErrInjected is the cause of every failure produced by fault injection;
// test with errors.Is. It never escapes a healthy deployment — only
// endpoints wrapped by WithFaults can return it.
var ErrInjected = errors.New("resilience: injected fault")

// FaultSpec describes the fault behavior of one endpoint under injection.
// All randomness derives from Seed through a PCG stream, so a given spec
// produces the same request-by-request fault sequence on every run —
// chaos tests assert exact outcomes, not probabilities.
type FaultSpec struct {
	// ErrorRate is the fraction of requests, in [0, 1], that fail
	// immediately with an error wrapping ErrInjected.
	ErrorRate float64
	// HangRate is the fraction of requests, in [0, 1], that hang until the
	// context is cancelled. Unlike Hang, it leaves the rest of the traffic
	// healthy — the regime where hedging pays off.
	HangRate float64
	// Hang, when true, makes every request block until context
	// cancellation: the endpoint is up but never answers. Overrides
	// ErrorRate and HangRate.
	Hang bool
	// Seed initializes the deterministic fault stream.
	Seed uint64
}

// Faulty wraps an Endpoint and injects faults per a FaultSpec. It is the
// deterministic chaos harness used by the resilience tests and the bench's
// `faults` experiment.
type Faulty struct {
	inner client.Endpoint

	mu   sync.Mutex
	spec FaultSpec
	rng  *rand.Rand

	injected *obs.Counter
}

// WithFaults wraps ep so that it misbehaves per spec. The endpoint keeps
// its name — fault injection is invisible to source selection and routing,
// exactly like a real endpoint going bad.
func WithFaults(ep client.Endpoint, spec FaultSpec) *Faulty {
	return &Faulty{
		inner: ep,
		spec:  spec,
		rng:   rand.New(rand.NewPCG(spec.Seed, 0x10541157)), // second word: arbitrary fixed stream id
		injected: obs.Default().Counter(obs.MetricFaultsInjected,
			"faults injected by the chaos harness per endpoint", obs.L("endpoint", ep.Name())),
	}
}

// Name implements client.Endpoint.
func (f *Faulty) Name() string { return f.inner.Name() }

// SetSpec replaces the fault behavior at runtime, so chaos tests can heal
// (or break) an endpoint mid-run — e.g. to exercise breaker recovery after
// an outage ends. The deterministic stream keeps its position across spec
// changes.
func (f *Faulty) SetSpec(spec FaultSpec) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spec = spec
}

// Unwrap returns the wrapped endpoint, letting instrumentation helpers see
// through the fault layer.
func (f *Faulty) Unwrap() client.Endpoint { return f.inner }

type faultKind int

const (
	faultNone faultKind = iota
	faultError
	faultHang
)

// draw picks this request's fate from the deterministic stream under one
// lock, so a concurrent SetSpec never tears a request's view of the spec.
// One draw per request keeps the sequence aligned across runs regardless
// of which fault fires.
func (f *Faulty) draw() faultKind {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.spec.Hang {
		return faultHang
	}
	u := f.rng.Float64()
	if u < f.spec.ErrorRate {
		return faultError
	}
	if u < f.spec.ErrorRate+f.spec.HangRate {
		return faultHang
	}
	return faultNone
}

// QueryStream implements client.Endpoint. Both faults fire before the
// head; a request spared by its draw streams the inner endpoint's answer.
func (f *Faulty) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	switch f.draw() {
	case faultError:
		f.injected.Inc()
		return nil, fmt.Errorf("endpoint %s: %w", f.inner.Name(), ErrInjected)
	case faultHang:
		f.injected.Inc()
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return f.inner.QueryStream(ctx, query)
}

// Query implements client.Endpoint.
func (f *Faulty) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return client.Collect(ctx, f, query)
}
