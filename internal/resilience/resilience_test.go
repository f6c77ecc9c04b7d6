package resilience

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"lusail/internal/client"
	"lusail/internal/lint/leakcheck"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// scriptEP is a scriptable endpoint: fn decides each call's behavior by
// call index (0-based), so tests control exactly which attempt hangs,
// fails, or answers.
type scriptEP struct {
	name string
	mu   sync.Mutex
	n    int
	fn   func(call int, ctx context.Context) (*sparql.Results, error)
}

func (s *scriptEP) Name() string { return s.name }

func (s *scriptEP) QueryStream(ctx context.Context, _ string) (sparql.RowReader, error) {
	s.mu.Lock()
	call := s.n
	s.n++
	s.mu.Unlock()
	res, err := s.fn(call, ctx)
	if err != nil {
		return nil, err
	}
	return sparql.NewResultsReader(res), nil
}

func (s *scriptEP) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return client.Collect(ctx, s, q)
}

func (s *scriptEP) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"default", DefaultConfig(), true},
		{"threshold too high", Config{FailureThreshold: 1.5}, false},
		{"negative window", Config{Window: -1}, false},
		{"negative cooldown", Config{Cooldown: -time.Second}, false},
		{"negative hedge delay", Config{HedgeMinDelay: -1}, false},
		{"hedge quantile 1", Config{HedgeQuantile: 1}, false},
		{"breakers only", Config{FailureThreshold: 0.5}, true},
		{"hedging only", Config{HedgeQuantile: 0.9}, true},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNilManagerIsDisabled(t *testing.T) {
	var m *Manager
	ep := &scriptEP{name: "u0", fn: func(int, context.Context) (*sparql.Results, error) {
		return sparql.NewResults(nil), nil
	}}
	if err := m.Allow("u0"); err != nil {
		t.Fatalf("nil manager Allow: %v", err)
	}
	if err := m.Gate().Allow("u0"); err != nil {
		t.Fatalf("nil manager Gate().Allow: %v", err)
	}
	m.Record("u0", time.Millisecond, nil) // must not panic
	m.SetProbeObserver(func(string, time.Duration) {})
	if _, ok := m.HedgeDelay("u0"); ok {
		t.Fatal("nil manager reports hedging active")
	}
	if st := m.State("u0"); st != Closed {
		t.Fatalf("nil manager State = %v, want Closed", st)
	}
	if rd, err := m.DoStream(context.Background(), ep, "ASK {}"); err != nil {
		t.Fatalf("nil manager DoStream: %v", err)
	} else {
		rd.Close()
	}
	if _, err := m.DoHedged(context.Background(), ep, "ASK {}"); err != nil {
		t.Fatalf("nil manager DoHedged: %v", err)
	}
	if got := ep.calls(); got != 2 {
		t.Fatalf("endpoint saw %d calls, want 2", got)
	}
	if NewManager(Config{}, nil) != nil {
		t.Fatal("NewManager with inactive config should return nil")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	leakcheck.Check(t)
	clock := time.Unix(0, 0)
	cfg := Config{
		FailureThreshold: 0.5,
		Window:           4,
		MinSamples:       4,
		Cooldown:         time.Second,
		HalfOpenProbes:   1,
		now:              func() time.Time { return clock },
	}
	m := NewManager(cfg, obs.NewRegistry())
	boom := errors.New("boom")

	// Below MinSamples nothing trips, even at a 100% failure rate.
	for i := 0; i < 3; i++ {
		m.Record("u0", time.Millisecond, boom)
	}
	if st := m.State("u0"); st != Closed {
		t.Fatalf("state after 3 failures = %v, want Closed (MinSamples=4)", st)
	}
	if err := m.Allow("u0"); err != nil {
		t.Fatalf("Allow while closed: %v", err)
	}

	// The fourth failure reaches MinSamples at 100% > 50%: open.
	m.Record("u0", time.Millisecond, boom)
	if st := m.State("u0"); st != Open {
		t.Fatalf("state after 4 failures = %v, want Open", st)
	}
	if err := m.Allow("u0"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}

	// Cooldown elapses: one trial request is admitted, the next rejected.
	clock = clock.Add(2 * time.Second)
	if err := m.Allow("u0"); err != nil {
		t.Fatalf("Allow after cooldown: %v", err)
	}
	if st := m.State("u0"); st != HalfOpen {
		t.Fatalf("state after cooldown = %v, want HalfOpen", st)
	}
	if err := m.Allow("u0"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second half-open trial = %v, want ErrBreakerOpen", err)
	}

	// Trial failure re-opens and restarts the cooldown.
	m.Record("u0", time.Millisecond, boom)
	if st := m.State("u0"); st != Open {
		t.Fatalf("state after failed trial = %v, want Open", st)
	}
	if err := m.Allow("u0"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow right after re-open = %v, want ErrBreakerOpen", err)
	}

	// Next cooldown, successful trial: closed with a clean window. A single
	// failure afterwards must not trip it again.
	clock = clock.Add(2 * time.Second)
	if err := m.Allow("u0"); err != nil {
		t.Fatalf("Allow after second cooldown: %v", err)
	}
	m.Record("u0", time.Millisecond, nil)
	if st := m.State("u0"); st != Closed {
		t.Fatalf("state after successful trial = %v, want Closed", st)
	}
	m.Record("u0", time.Millisecond, boom)
	if st := m.State("u0"); st != Closed {
		t.Fatalf("clean window: one failure re-tripped the breaker (state %v)", st)
	}

	// Other endpoints are independent.
	if st := m.State("u1"); st != Closed {
		t.Fatalf("unrelated endpoint state = %v, want Closed", st)
	}
}

// TestGatedAdmissionSingleShot is the regression test for the pool-gate /
// Do double-admission bug (Do is now DoStream): the gate's Allow must only
// peek — no open → half-open transition, no trial-slot claim — so the
// DoStream it admits can still claim the (single) trial slot at dispatch and close the breaker.
// When the gate claimed too, DoStream's own admission found the slot taken,
// rejected the request before it ran, and the breaker never left
// half-open.
func TestGatedAdmissionSingleShot(t *testing.T) {
	clock := time.Unix(0, 0)
	cfg := Config{
		FailureThreshold: 0.5,
		Window:           4,
		MinSamples:       2,
		Cooldown:         time.Second,
		HalfOpenProbes:   1,
		now:              func() time.Time { return clock },
	}
	m := NewManager(cfg, obs.NewRegistry())
	boom := errors.New("boom")
	m.Record("u0", time.Millisecond, boom)
	m.Record("u0", time.Millisecond, boom)
	if st := m.State("u0"); st != Open {
		t.Fatalf("state after failures = %v, want Open", st)
	}
	if err := m.Gate().Allow("u0"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("gate during cooldown = %v, want ErrBreakerOpen", err)
	}

	clock = clock.Add(2 * time.Second)
	// The pool gate admits the task; peeking must neither transition the
	// breaker nor claim the trial slot — DoStream does both at dispatch.
	if err := m.Gate().Allow("u0"); err != nil {
		t.Fatalf("gate after cooldown: %v", err)
	}
	if st := m.State("u0"); st != Open {
		t.Fatalf("gate peek transitioned the breaker (state %v)", st)
	}
	ep := &scriptEP{name: "u0", fn: func(int, context.Context) (*sparql.Results, error) {
		return sparql.NewResults(nil), nil
	}}
	if rd, err := m.DoStream(context.Background(), ep, "ASK {}"); err != nil {
		t.Fatalf("DoStream after gate admission = %v; admission was double-claimed", err)
	} else {
		rd.Close()
	}
	if st := m.State("u0"); st != Closed {
		t.Fatalf("breaker did not recover through the gated path (state %v)", st)
	}
	if got := ep.calls(); got != 1 {
		t.Fatalf("endpoint saw %d calls, want 1 trial", got)
	}
}

// TestCancelledHalfOpenTrialReleasesSlot: a trial abandoned by query
// cancellation is neutral for endpoint health, but it must hand its
// half-open slot back so the next request can probe; a leaked slot leaves
// the breaker rejecting every future request for the endpoint.
func TestCancelledHalfOpenTrialReleasesSlot(t *testing.T) {
	clock := time.Unix(0, 0)
	cfg := Config{
		FailureThreshold: 0.5,
		Window:           4,
		MinSamples:       2,
		Cooldown:         time.Second,
		HalfOpenProbes:   1,
		now:              func() time.Time { return clock },
	}
	m := NewManager(cfg, obs.NewRegistry())
	boom := errors.New("boom")
	m.Record("u0", time.Millisecond, boom)
	m.Record("u0", time.Millisecond, boom)
	clock = clock.Add(2 * time.Second)
	if err := m.Allow("u0"); err != nil {
		t.Fatalf("Allow after cooldown: %v", err)
	}
	// The trial is cancelled mid-flight.
	m.Record("u0", time.Millisecond, context.Canceled)
	if st := m.State("u0"); st != HalfOpen {
		t.Fatalf("state after cancelled trial = %v, want HalfOpen", st)
	}
	if err := m.Allow("u0"); err != nil {
		t.Fatalf("Allow after cancelled trial = %v; the trial slot leaked", err)
	}
	m.Record("u0", time.Millisecond, nil)
	if st := m.State("u0"); st != Closed {
		t.Fatalf("state after successful retrial = %v, want Closed", st)
	}
}

func TestRecordCancellationIsNeutral(t *testing.T) {
	cfg := Config{FailureThreshold: 0.5, Window: 4, MinSamples: 2, Cooldown: time.Second}
	m := NewManager(cfg, obs.NewRegistry())
	for i := 0; i < 10; i++ {
		m.Record("u0", time.Millisecond, context.Canceled)
	}
	if st := m.State("u0"); st != Closed {
		t.Fatalf("cancelled requests tripped the breaker (state %v)", st)
	}
	// DeadlineExceeded, by contrast, is a real failure.
	m.Record("u0", time.Millisecond, context.DeadlineExceeded)
	m.Record("u0", time.Millisecond, context.DeadlineExceeded)
	if st := m.State("u0"); st != Open {
		t.Fatalf("deadline-exceeded requests did not trip the breaker (state %v)", st)
	}
}

func TestP2Quantile(t *testing.T) {
	for _, target := range []float64{0.5, 0.9, 0.99} {
		e := newP2(target)
		if _, ok := e.quantile(); ok {
			t.Fatalf("p=%v: quantile valid before any samples", target)
		}
		// A fixed permutation of 1..2000 from a seeded PCG stream.
		rng := rand.New(rand.NewPCG(7, 7))
		xs := rng.Perm(2000)
		for _, x := range xs {
			e.observe(float64(x + 1))
		}
		q, ok := e.quantile()
		if !ok {
			t.Fatalf("p=%v: quantile invalid after 2000 samples", target)
		}
		want := target * 2000
		if q < want*0.93 || q > want*1.07 {
			t.Errorf("p=%v: estimate %.1f, want within 7%% of %.1f", target, q, want)
		}
		if e.count() != 2000 {
			t.Errorf("count = %d, want 2000", e.count())
		}
	}
}

func TestFaultsDeterministic(t *testing.T) {
	run := func() []bool {
		ep := &scriptEP{name: "u0", fn: func(int, context.Context) (*sparql.Results, error) {
			return sparql.NewResults(nil), nil
		}}
		f := WithFaults(ep, FaultSpec{ErrorRate: 0.4, Seed: 42})
		var outcomes []bool
		for i := 0; i < 200; i++ {
			_, err := f.Query(context.Background(), "ASK {}")
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("injected failure does not wrap ErrInjected: %v", err)
			}
			outcomes = append(outcomes, err != nil)
		}
		return outcomes
	}
	a, b := run(), run()
	failures := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault streams diverge at request %d", i)
		}
		if a[i] {
			failures++
		}
	}
	if failures < 50 || failures > 110 {
		t.Errorf("ErrorRate 0.4 over 200 requests injected %d failures", failures)
	}
}

func TestFaultsHangBlocksUntilCancel(t *testing.T) {
	ep := &scriptEP{name: "u0", fn: func(int, context.Context) (*sparql.Results, error) {
		return sparql.NewResults(nil), nil
	}}
	f := WithFaults(ep, FaultSpec{Hang: true})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.Query(ctx, "ASK {}")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("hung request returned before cancellation: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("hung request returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("hung request did not return after cancellation")
	}
	if got := ep.calls(); got != 0 {
		t.Fatalf("hung request reached the inner endpoint (%d calls)", got)
	}
}

// warmHedging feeds the manager enough successful samples that hedging is
// active for ep with roughly the given latency estimate.
func warmHedging(m *Manager, ep string, lat time.Duration) {
	for i := 0; i < 16; i++ {
		m.Record(ep, lat, nil)
	}
}

func TestDoHedgedRescuesHungProbe(t *testing.T) {
	leakcheck.Check(t)
	cfg := Config{HedgeQuantile: 0.9, HedgeWarmup: 5, HedgeMinDelay: time.Millisecond}
	m := NewManager(cfg, obs.NewRegistry())
	warmHedging(m, "u0", 2*time.Millisecond)
	if _, ok := m.HedgeDelay("u0"); !ok {
		t.Fatal("hedging not active after warmup")
	}

	firstCancelled := make(chan struct{})
	ep := &scriptEP{name: "u0"}
	ep.fn = func(call int, ctx context.Context) (*sparql.Results, error) {
		if call == 0 {
			// First attempt hangs; it must be cancelled once the hedge wins.
			<-ctx.Done()
			close(firstCancelled)
			return nil, ctx.Err()
		}
		return sparql.NewResults(nil), nil
	}

	start := time.Now()
	res, err := m.DoHedged(context.Background(), ep, "ASK {}")
	elapsed := time.Since(start)
	if err != nil || res == nil {
		t.Fatalf("DoHedged = %v, %v; want rescued success", res, err)
	}
	if elapsed > time.Second {
		t.Fatalf("hedged probe took %v; the hedge did not race the hang", elapsed)
	}
	select {
	case <-firstCancelled:
	case <-time.After(time.Second):
		t.Fatal("losing attempt was not cancelled after the hedge won")
	}
	if got := ep.calls(); got != 2 {
		t.Fatalf("endpoint saw %d attempts, want 2", got)
	}
}

// stalledStream has sent its head; its first Read waits until the
// request's context ends.
type stalledStream struct {
	ctx    context.Context
	closed chan struct{}
}

func (r *stalledStream) Vars() []string { return []string{"x"} }
func (r *stalledStream) Read() ([]rdf.Term, error) {
	<-r.ctx.Done()
	return nil, r.ctx.Err()
}
func (r *stalledStream) Close() error {
	close(r.closed)
	return nil
}

// stallFirst answers its first request with a stalledStream and the rest
// with one row.
type stallFirst struct {
	first *stalledStream
	calls int
	mu    sync.Mutex
}

func (e *stallFirst) Name() string { return "u0" }
func (e *stallFirst) QueryStream(ctx context.Context, _ string) (sparql.RowReader, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.calls++; e.calls == 1 {
		e.first.ctx = ctx
		return e.first, nil
	}
	res := sparql.NewResults([]string{"x"})
	res.Rows = [][]rdf.Term{{rdf.NewIRI("http://ex/x")}}
	return sparql.NewResultsReader(res), nil
}
func (e *stallFirst) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return client.Collect(ctx, e, q)
}

// A hedge that wins while the first attempt is stalled mid-stream, after
// its head, cancels that attempt, whose drain ends and closes its reader.
func TestDoHedgedClosesLosingStream(t *testing.T) {
	leakcheck.Check(t)
	cfg := Config{HedgeQuantile: 0.9, HedgeWarmup: 5, HedgeMinDelay: time.Millisecond}
	m := NewManager(cfg, obs.NewRegistry())
	warmHedging(m, "u0", 2*time.Millisecond)
	ep := &stallFirst{first: &stalledStream{closed: make(chan struct{})}}
	res, err := m.DoHedged(context.Background(), ep, "SELECT ?x WHERE { ?x ?p ?o }")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("DoHedged = %+v, %v; want the hedge's one row", res, err)
	}
	select {
	case <-ep.first.closed:
	case <-time.After(time.Second):
		t.Fatal("the losing attempt's reader was not closed")
	}
}

func TestDoHedgedFastResponseNeverHedges(t *testing.T) {
	cfg := Config{HedgeQuantile: 0.9, HedgeWarmup: 5, HedgeMinDelay: 50 * time.Millisecond}
	m := NewManager(cfg, obs.NewRegistry())
	warmHedging(m, "u0", time.Millisecond)
	ep := &scriptEP{name: "u0", fn: func(int, context.Context) (*sparql.Results, error) {
		return sparql.NewResults(nil), nil
	}}
	if _, err := m.DoHedged(context.Background(), ep, "ASK {}"); err != nil {
		t.Fatalf("DoHedged: %v", err)
	}
	if got := ep.calls(); got != 1 {
		t.Fatalf("fast probe was hedged anyway (%d attempts)", got)
	}
}

func TestDoHedgedPropagatesQueryCancellation(t *testing.T) {
	leakcheck.Check(t)
	cfg := Config{HedgeQuantile: 0.9, HedgeWarmup: 5, HedgeMinDelay: time.Millisecond}
	m := NewManager(cfg, obs.NewRegistry())
	warmHedging(m, "u0", time.Millisecond)
	ep := &scriptEP{name: "u0", fn: func(_ int, ctx context.Context) (*sparql.Results, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := m.DoHedged(ctx, ep, "ASK {}"); !errors.Is(err, context.Canceled) {
		t.Fatalf("DoHedged under query cancellation = %v, want context.Canceled", err)
	}
}

func TestWarningsSink(t *testing.T) {
	// Without a sink, Warn is a no-op and TakeWarnings returns nil.
	bare := context.Background()
	Warn(bare, Warning{Endpoint: "u0", Phase: client.PhaseSubquery, Message: "lost"})
	if ws := TakeWarnings(bare); ws != nil {
		t.Fatalf("TakeWarnings without sink = %v, want nil", ws)
	}

	ctx := WithWarnings(bare)
	Warn(ctx, Warning{Endpoint: "u0", Phase: client.PhaseSubquery, Message: "lost"})
	Warn(ctx, Warning{Endpoint: "u1", Phase: client.PhaseCount, Message: "unknown"})
	ws := TakeWarnings(ctx)
	if len(ws) != 2 || ws[0].Endpoint != "u0" || ws[1].Phase != client.PhaseCount {
		t.Fatalf("TakeWarnings = %+v", ws)
	}
	if again := TakeWarnings(ctx); again != nil {
		t.Fatalf("second TakeWarnings = %v, want drained nil", again)
	}
}

// A failed relevance probe warns once, naming the endpoint once, counts a
// probe failure and comes back as the endpoint's error; selection fails
// only when every probe failed and nothing about the pattern was known.
func TestProbeFailedWarningAndSelectionRule(t *testing.T) {
	failures := obs.Default().Counter(obs.MetricSourceProbeFailures, "")
	before := failures.Value()
	ctx := WithWarnings(context.Background())
	cause := errors.New("connection reset")
	err := ProbeFailed(ctx, "ep1", &client.EndpointError{Endpoint: "ep1", Phase: client.PhaseCount, Err: cause})
	var ee *client.EndpointError
	if !errors.As(err, &ee) || ee.Endpoint != "ep1" || ee.Phase != client.PhaseSourceSelection || !errors.Is(err, cause) {
		t.Errorf("ProbeFailed = %#v, want ep1's source-selection error wrapping the cause", err)
	}
	ws := TakeWarnings(ctx)
	if len(ws) != 1 || ws[0].Endpoint != "ep1" || ws[0].Phase != client.PhaseSourceSelection ||
		ws[0].Message != "probe failed; endpoint conservatively treated as relevant: connection reset" {
		t.Errorf("warnings = %+v, want one source-selection warning about ep1", ws)
	}
	if d := failures.Value() - before; d != 1 {
		t.Errorf("%d probe failures counted, want 1", d)
	}

	for _, c := range []struct {
		errs  []error
		known bool
		fail  bool
	}{
		{nil, false, false},
		{[]error{err, nil}, false, false},
		{[]error{err, err}, true, false},
		{[]error{err, err}, false, true},
	} {
		if got := SelectionFailed(c.errs, c.known); (got != nil) != c.fail {
			t.Errorf("SelectionFailed(%v, known=%v) = %v, want failure %v", c.errs, c.known, got, c.fail)
		}
	}
}
