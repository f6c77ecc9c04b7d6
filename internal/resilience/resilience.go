// Package resilience is the fault-tolerance layer of the federated engine.
// Lusail's evaluation assumes every endpoint answers every ASK/COUNT/check/
// subquery request; real decentralized deployments (the public endpoints of
// PVLDB 11(4) §6) are slow, flaky, and rate-limited. This package supplies
// the three mechanisms FedX- and ANAPSID-style engines grew to survive
// them, behind one Manager that the engine threads through every remote
// request:
//
//   - Per-endpoint circuit breakers (closed → open → half-open) driven by a
//     failure-rate sliding window. The ERH pool consults the breaker before
//     dispatching a task, so requests to a broken endpoint are rejected
//     without occupying a worker slot or waiting out a timeout.
//   - Hedged requests for idempotent probes (ASK, COUNT, LIMIT-1 check
//     queries): when a probe outlives an adaptive per-endpoint latency
//     quantile (a P² estimate fed from observed request timings), a second
//     identical request races it and the first response wins, cutting tail
//     latency against endpoints with occasional hiccups.
//   - Deterministic fault injection (WithFaults) for chaos tests and the
//     `faults` bench experiment.
//
// Partial-results degradation (Options.OnEndpointFailure = Degrade) lives
// in package core, but its decisions rest on the typed errors and breaker
// state this package produces. All breaker/hedge decisions emit obs
// counters and trace-span attributes so EXPLAIN shows what the resilience
// layer did.
package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lusail/internal/obs"
)

// ErrBreakerOpen is the sentinel cause of requests rejected by an open
// circuit breaker; test with errors.Is. Rejections are instantaneous — no
// network traffic happens — so callers in Degrade mode can skip the
// endpoint cheaply, and callers in Fail mode surface it as an endpoint
// failure.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// Closed admits all requests (the healthy state).
	Closed BreakerState = iota
	// Open rejects all requests until the cooldown elapses.
	Open
	// HalfOpen admits a bounded number of trial requests; one success
	// closes the breaker, one failure re-opens it.
	HalfOpen
)

// String returns the conventional lowercase label.
func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "closed"
}

// Config tunes the resilience layer. The zero value disables everything
// (no breakers, no hedging), preserving the engine's historical fail-fast
// behavior; DefaultConfig returns the recommended production settings.
type Config struct {
	// FailureThreshold is the failure rate in the sliding window at or
	// above which the breaker opens. <= 0 disables circuit breakers
	// entirely; otherwise it must be in (0, 1].
	FailureThreshold float64
	// Window is the number of most recent requests per endpoint over which
	// the failure rate is computed (default 20).
	Window int
	// MinSamples is the minimum number of windowed requests before the
	// failure rate can trip the breaker (default 5) — one early failure
	// must not open a breaker.
	MinSamples int
	// Cooldown is how long an open breaker rejects before moving to
	// half-open (default 5s).
	Cooldown time.Duration
	// HalfOpenProbes bounds concurrent trial requests in half-open
	// (default 1).
	HalfOpenProbes int

	// HedgeQuantile is the per-endpoint latency quantile a probe must
	// outlive before a second identical request races it. <= 0 disables
	// hedging; otherwise it must be in (0, 1). 0.9 is the classic
	// tail-at-scale setting.
	HedgeQuantile float64
	// HedgeMinDelay floors the adaptive hedge delay so very fast endpoints
	// do not double every probe (default 1ms).
	HedgeMinDelay time.Duration
	// HedgeWarmup is the number of latency samples required per endpoint
	// before hedging activates there (default 8; minimum 5 — the P²
	// estimator needs 5 samples to initialize).
	HedgeWarmup int

	// now is a test clock hook; nil means time.Now.
	now func() time.Time
}

// DefaultConfig returns the recommended resilience settings: breakers at a
// 50% failure rate over a 20-request window with a 5s cooldown, and hedging
// at the p90 latency quantile.
func DefaultConfig() Config {
	return Config{
		FailureThreshold: 0.5,
		Window:           20,
		MinSamples:       5,
		Cooldown:         5 * time.Second,
		HalfOpenProbes:   1,
		HedgeQuantile:    0.9,
		HedgeMinDelay:    time.Millisecond,
		HedgeWarmup:      8,
	}
}

// Validate rejects configurations that cannot mean anything: negative
// timeouts and out-of-range thresholds. A zero Config is valid (everything
// disabled).
func (c Config) Validate() error {
	if c.FailureThreshold > 1 {
		return fmt.Errorf("resilience: FailureThreshold %v out of range (0, 1]", c.FailureThreshold)
	}
	if c.Window < 0 || c.MinSamples < 0 || c.HalfOpenProbes < 0 || c.HedgeWarmup < 0 {
		return errors.New("resilience: Window, MinSamples, HalfOpenProbes, and HedgeWarmup must be >= 0")
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("resilience: negative Cooldown %v", c.Cooldown)
	}
	if c.HedgeMinDelay < 0 {
		return fmt.Errorf("resilience: negative HedgeMinDelay %v", c.HedgeMinDelay)
	}
	if c.HedgeQuantile >= 1 {
		return fmt.Errorf("resilience: HedgeQuantile %v out of range (0, 1)", c.HedgeQuantile)
	}
	return nil
}

// Active reports whether any resilience mechanism is enabled.
func (c Config) Active() bool { return c.FailureThreshold > 0 || c.HedgeQuantile > 0 }

// withDefaults fills unset tuning knobs with their documented defaults.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = time.Millisecond
	}
	if c.HedgeWarmup < 5 {
		c.HedgeWarmup = 8
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// outcome classifies one completed request for the breaker. neutral marks
// a request abandoned mid-flight (the query was cancelled, or a hedge
// sibling won): it says nothing about endpoint health, but it must still
// release the half-open trial slot the request may have been holding —
// otherwise a single cancelled trial wedges the breaker in half-open
// forever.
type outcome int

const (
	success outcome = iota
	failure
	neutral
)

// breaker is one endpoint's circuit breaker: a failure-rate sliding window
// in the closed state, a cooldown timer in the open state, and a bounded
// trial quota in half-open.
type breaker struct {
	cfg Config

	mu        sync.Mutex
	state     BreakerState
	window    []bool // ring buffer: true = failure
	idx       int    // next write position
	filled    int    // observations currently in the window
	failures  int    // failures currently in the window
	openedAt  time.Time
	trialsOut int // half-open trial requests in flight

	opens    *obs.Counter
	rejects  *obs.Counter
	stateGge *obs.Gauge
}

func newBreaker(cfg Config, name string, reg *obs.Registry) *breaker {
	label := obs.L("endpoint", name)
	return &breaker{
		cfg:      cfg,
		window:   make([]bool, cfg.Window),
		opens:    reg.Counter(obs.MetricBreakerOpens, "circuit breaker transitions to open per endpoint", label),
		rejects:  reg.Counter(obs.MetricBreakerRejections, "requests rejected by an open breaker per endpoint", label),
		stateGge: reg.Gauge(obs.MetricBreakerState, "breaker state per endpoint (0 closed, 1 open, 2 half-open)", label),
	}
}

// peek reports whether a request to this endpoint would currently be
// admitted, without claiming anything: no open → half-open transition, no
// trial slot. The ERH pool gate uses it to skip tasks for broken endpoints
// before they occupy a worker slot; the claiming admission (allow) happens
// at dispatch time inside Manager.DoStream / DoHedged. Peeking and
// claiming must stay separate operations — if the gate claimed, every
// gated request would claim twice (gate, then DoStream), and with
// HalfOpenProbes=1 the second claim would be rejected before the trial
// ever ran, wedging the breaker in half-open permanently.
func (b *breaker) peek() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.cfg.now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.rejects.Inc()
			return ErrBreakerOpen
		}
		return nil // cooldown over: ripe for a trial; allow() transitions
	default: // HalfOpen
		if b.trialsOut >= b.cfg.HalfOpenProbes {
			b.rejects.Inc()
			return ErrBreakerOpen
		}
		return nil
	}
}

// allow claims admission for a request dispatched now: it performs the
// open → half-open transition when the cooldown has elapsed and takes a
// half-open trial slot. Every successful allow must be paired with exactly
// one record, which releases the slot.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.cfg.now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.rejects.Inc()
			return ErrBreakerOpen
		}
		b.setState(HalfOpen)
		b.trialsOut = 1
		return nil
	default: // HalfOpen
		if b.trialsOut >= b.cfg.HalfOpenProbes {
			b.rejects.Inc()
			return ErrBreakerOpen
		}
		b.trialsOut++
		return nil
	}
}

// record feeds one admitted request's outcome into the breaker. In
// half-open it always releases the trial slot, whatever the outcome; a
// neutral outcome otherwise changes nothing, so the next request simply
// re-probes.
func (b *breaker) record(o outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		if b.trialsOut > 0 {
			b.trialsOut--
		}
		switch o {
		case failure:
			// The endpoint is still broken: restart the cooldown.
			b.setState(Open)
			b.openedAt = b.cfg.now()
			b.opens.Inc()
		case success:
			// Recovered: close with a clean window.
			b.setState(Closed)
			b.resetWindow()
		default: // neutral: slot released, state unchanged.
		}
	case Closed:
		if o == neutral {
			return
		}
		failed := o == failure
		if b.window[b.idx] && b.filled == len(b.window) {
			b.failures--
		}
		b.window[b.idx] = failed
		b.idx = (b.idx + 1) % len(b.window)
		if b.filled < len(b.window) {
			b.filled++
		}
		if failed {
			b.failures++
		}
		if b.filled >= b.cfg.MinSamples &&
			float64(b.failures)/float64(b.filled) >= b.cfg.FailureThreshold {
			b.setState(Open)
			b.openedAt = b.cfg.now()
			b.opens.Inc()
			b.resetWindow()
		}
	default: // Open: a late completion from before the trip; nothing to learn.
	}
}

func (b *breaker) resetWindow() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.filled, b.failures = 0, 0, 0
}

func (b *breaker) setState(s BreakerState) {
	b.state = s
	b.stateGge.Set(int64(s))
}

func (b *breaker) currentState() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
