package resilience

import (
	"context"
	"errors"
	"sync"
	"time"

	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/sparql"
)

// Manager holds the per-endpoint resilience state — circuit breaker and
// latency-quantile estimator — and mediates every remote request the engine
// makes. A nil *Manager is valid and means "resilience disabled": Allow
// admits everything, DoStream calls the endpoint directly, and DoHedged
// never hedges. That keeps call sites free of nil checks, mirroring the obs
// package's nil-safe spans.
type Manager struct {
	cfg Config
	reg *obs.Registry

	mu  sync.Mutex
	eps map[string]*epState

	hedges    *obs.Counter
	hedgeWins *obs.Counter

	// probeObs, when set, observes the wall-clock duration of every
	// DoStream / DoHedged call (after hedging, so it sees the latency the
	// caller experienced). The bench's faults experiment uses it to report probe
	// p50/p99 with hedging on and off.
	probeObs func(endpoint string, d time.Duration)
}

type epState struct {
	br *breaker

	mu      sync.Mutex
	lat     *p2 // successful-request latency, seconds
	samples int
}

// NewManager returns a Manager for the given config, or nil when the config
// enables nothing, so callers can thread the result around unconditionally.
// Metrics are registered on reg (obs.Default() when nil).
func NewManager(cfg Config, reg *obs.Registry) *Manager {
	if !cfg.Active() {
		return nil
	}
	if reg == nil {
		reg = obs.Default()
	}
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:       cfg,
		reg:       reg,
		eps:       make(map[string]*epState),
		hedges:    reg.Counter(obs.MetricHedges, "probe requests that started a hedge"),
		hedgeWins: reg.Counter(obs.MetricHedgeWins, "hedged probes where the hedge finished first"),
	}
}

// SetProbeObserver installs fn to observe the caller-experienced duration of
// every DoStream/DoHedged call. Call before issuing queries; not
// synchronized with in-flight requests.
func (m *Manager) SetProbeObserver(fn func(endpoint string, d time.Duration)) {
	if m != nil {
		m.probeObs = fn
	}
}

func (m *Manager) state(name string) *epState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.eps[name]
	if !ok {
		st = &epState{lat: newP2(m.cfg.HedgeQuantile)}
		if m.cfg.FailureThreshold > 0 {
			st.br = newBreaker(m.cfg, name, m.reg)
		}
		m.eps[name] = st
	}
	return st
}

// Allow claims admission for a request to the named endpoint dispatched
// now, returning an error wrapping ErrBreakerOpen when its breaker
// rejects. A successful Allow may hold the endpoint's half-open trial
// slot, so it must be paired with exactly one Record (which releases the
// slot whatever the outcome, cancellation included). DoStream and DoHedged
// keep that pairing themselves; use Gate() — which only peeks — for pool
// admission, never Allow, or gated requests would claim twice.
func (m *Manager) Allow(name string) error {
	if m == nil || m.cfg.FailureThreshold <= 0 {
		return nil
	}
	if br := m.state(name).br; br != nil {
		return br.allow()
	}
	return nil
}

// Gate is the Manager's non-claiming admission view for the ERH pool. Its
// Allow only peeks at breaker state: no open → half-open transition, no
// trial-slot claim. The claiming admission happens inside
// DoStream/DoHedged when the request actually dispatches, so a task queued
// behind a saturated pool never strands the trial quota, and
// gate-then-dispatch admits exactly once. The zero Gate (and a nil Manager's Gate) admits everything.
type Gate struct{ m *Manager }

// Gate returns the pool-admission view of m; valid on a nil Manager.
func (m *Manager) Gate() Gate { return Gate{m} }

// Allow implements the ERH pool's admission check. A request admitted here
// is re-checked — and claimed — by DoStream/DoHedged at dispatch, so a
// breaker that trips (or runs out of trial slots) while the task waits for
// a pool slot still rejects it at the last moment.
func (g Gate) Allow(name string) error {
	m := g.m
	if m == nil || m.cfg.FailureThreshold <= 0 {
		return nil
	}
	if br := m.state(name).br; br != nil {
		return br.peek()
	}
	return nil
}

// State returns the named endpoint's breaker state (Closed when breakers
// are disabled or the endpoint has never been seen).
func (m *Manager) State(name string) BreakerState {
	if m == nil || m.cfg.FailureThreshold <= 0 {
		return Closed
	}
	m.mu.Lock()
	st, ok := m.eps[name]
	m.mu.Unlock()
	if !ok || st.br == nil {
		return Closed
	}
	return st.br.currentState()
}

// Record feeds one request outcome into the endpoint's breaker and latency
// estimator. Context cancellation is neutral: a request abandoned because
// its sibling hedge won (or the whole query was cancelled) says nothing
// about endpoint health — but it still reaches the breaker, because a
// cancelled request may hold the half-open trial slot its Allow claimed,
// and that slot must be released. Deadline expiry, by contrast, is exactly
// the slow endpoint the breaker exists to catch, so it counts as a
// failure.
func (m *Manager) Record(name string, d time.Duration, err error) {
	if m == nil {
		return
	}
	o := success
	switch {
	case errors.Is(err, context.Canceled):
		o = neutral
	case err != nil:
		o = failure
	}
	st := m.state(name)
	if st.br != nil {
		st.br.record(o)
	}
	if o == success && m.cfg.HedgeQuantile > 0 {
		st.mu.Lock()
		st.lat.observe(d.Seconds())
		st.samples++
		st.mu.Unlock()
	}
}

// HedgeDelay returns how long a probe to the named endpoint should wait
// before a second request races it, and whether enough latency samples
// exist for hedging to be active there.
func (m *Manager) HedgeDelay(name string) (time.Duration, bool) {
	if m == nil || m.cfg.HedgeQuantile <= 0 {
		return 0, false
	}
	st := m.state(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	q, ok := st.lat.quantile()
	if !ok || st.samples < m.cfg.HedgeWarmup {
		return 0, false
	}
	d := time.Duration(q * float64(time.Second))
	if d < m.cfg.HedgeMinDelay {
		d = m.cfg.HedgeMinDelay
	}
	return d, true
}

// DoHedged runs an idempotent probe (ASK, COUNT, LIMIT-1 check) with tail
// hedging: if the first request outlives the endpoint's adaptive latency
// quantile, a second identical request races it and the first answer —
// success or failure — wins, cancelling the other. Each attempt drains its
// own stream and closes it, so the loser's reader closes as its context
// ends. Hedging only triggers after the per-endpoint warmup; until then,
// and on a nil Manager, DoHedged collects DoStream's answer.
//
// Only the winning attempt's outcome is recorded against the breaker; the
// loser is cancelled, and Record treats cancellation as neutral.
func (m *Manager) DoHedged(ctx context.Context, ep client.Endpoint, query string) (*sparql.Results, error) {
	delay, hedgeable := m.HedgeDelay(ep.Name())
	if !hedgeable {
		rd, err := m.DoStream(ctx, ep, query)
		if err != nil {
			return nil, err
		}
		return sparql.ReadAllRows(rd)
	}
	if err := m.Allow(ep.Name()); err != nil {
		return nil, err
	}

	type attempt struct {
		res    *sparql.Results
		err    error
		d      time.Duration
		hedged bool
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the maximum number of attempts so the loser's send never
	// blocks after the winner returns.
	ch := make(chan attempt, 2)
	launch := func(hedged bool) {
		go func() {
			start := time.Now()
			res, err := client.Collect(actx, ep, query)
			ch <- attempt{res: res, err: err, d: time.Since(start), hedged: hedged}
		}()
	}

	start := time.Now()
	launch(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()

	outstanding := 1
	hedgeStarted := false
	for {
		select {
		case <-timer.C:
			if !hedgeStarted {
				hedgeStarted = true
				m.hedges.Inc()
				if sp := obs.FromContext(ctx); sp != nil {
					sp.SetAttr("hedged", ep.Name())
				}
				outstanding++
				launch(true)
			}
		case a := <-ch:
			// Ignore attempts that lost to a cancellation — unless this is
			// the last attempt standing, in which case its outcome (likely
			// ctx.Err()) is the answer.
			if errors.Is(a.err, context.Canceled) && ctx.Err() == nil && outstanding > 1 {
				outstanding--
				continue
			}
			cancel()
			total := time.Since(start)
			m.Record(ep.Name(), a.d, a.err)
			if m.probeObs != nil {
				m.probeObs(ep.Name(), total)
			}
			if a.hedged {
				m.hedgeWins.Inc()
			}
			return a.res, a.err
		}
	}
}
