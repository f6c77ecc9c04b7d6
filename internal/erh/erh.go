// Package erh implements the Elastic Request Handler: a bounded worker pool
// that multiplexes endpoint requests (COUNT cardinality and LADE check
// probes, source-refinement ASKs, catalog summaries, the comparators'
// ASKs) across a fixed number of workers, as in Figure 3 of the paper. The
// paper sizes the pool by physical cores; here it defaults to DefaultLimit
// in-flight requests per call, because the work is waiting on the network,
// not computing.
package erh

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"lusail/internal/obs"
)

// Pool is a bounded-concurrency executor. The zero value is not usable;
// call New.
type Pool struct {
	limit int

	queued   *obs.Gauge     // tasks submitted, waiting for a slot
	inFlight *obs.Gauge     // tasks holding a slot
	wait     *obs.Histogram // time from submission to slot acquisition
}

// DefaultLimit is the concurrency of a pool built with New(0): the CPU
// cores, but at least 16. Sized by cores, as in the paper, two cores would
// keep two requests in flight for tasks that only wait out round trips.
var DefaultLimit = max(runtime.NumCPU(), 16)

// New returns a pool running at most limit tasks concurrently per ForEach
// call; limit <= 0 means DefaultLimit. Pools report queue depth, in-flight
// tasks, and task wait time into the default obs registry (all pools share
// the series, so the gauges read as process-wide totals).
func New(limit int) *Pool {
	if limit <= 0 {
		limit = DefaultLimit
	}
	reg := obs.Default()
	return &Pool{
		limit:    limit,
		queued:   reg.Gauge(obs.MetricERHQueueDepth, "tasks waiting for an ERH pool slot"),
		inFlight: reg.Gauge(obs.MetricERHInFlight, "tasks holding an ERH pool slot"),
		wait:     reg.Histogram(obs.MetricERHWaitSeconds, "time tasks wait for an ERH pool slot", obs.LatencyBuckets),
	}
}

// Limit returns the pool's concurrency limit.
func (p *Pool) Limit() int { return p.limit }

// Gate decides, per named endpoint, whether a task is worth dispatching
// right now. The resilience layer's breaker view (Manager.Gate) implements
// it: an open breaker rejects the task before it occupies a pool slot, so
// a broken endpoint cannot starve the pool while its requests wait out
// timeouts.
//
// Allow must be advisory — peek, don't claim. Tasks are gated at
// submission, possibly long before a worker slot frees up, so a gate that
// claimed limited admission state here (e.g. a breaker's half-open trial
// slot) would hold it for the whole queue wait and could leak it entirely
// when the task is skipped by cancellation. The authoritative, claiming
// admission happens again inside the task when the request dispatches
// (resilience.Manager.DoStream / DoHedged).
type Gate interface {
	// Allow returns nil to admit a task for the named endpoint, or the
	// rejection cause (wrapping resilience.ErrBreakerOpen for breakers).
	Allow(name string) error
}

// ForEach runs fn(0..n-1) with bounded concurrency and waits for all calls
// to finish. It returns the joined errors of all failed calls. If the
// context is cancelled, unstarted tasks are skipped — including tasks that
// were already queued on the semaphore when the cancellation arrived — and
// ctx.Err() is included in the returned error.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	return p.forEach(ctx, n, nil, nil, nil, fn)
}

// ForEachGated is ForEach with per-task admission control: before task i
// waits for a pool slot, gate.Allow(names[i]) is consulted. A rejected
// task never occupies a slot; its rejection is passed to onReject(i, err)
// when set (partial-results mode records a warning and moves on), or
// recorded as the task's error when onReject is nil (fail-fast mode). A
// nil gate admits everything, making the call equivalent to ForEach over
// len(names) tasks.
func (p *Pool) ForEachGated(ctx context.Context, names []string, gate Gate, onReject func(i int, err error), fn func(i int) error) error {
	return p.forEach(ctx, len(names), names, gate, onReject, fn)
}

func (p *Pool) forEach(ctx context.Context, n int, names []string, gate Gate, onReject func(i int, err error), fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	sem := make(chan struct{}, p.limit)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			break
		}
		if gate != nil && i < len(names) {
			if err := gate.Allow(names[i]); err != nil {
				if onReject != nil {
					onReject(i, err)
				} else {
					errs[i] = err
				}
				continue
			}
		}
		p.queued.Add(1)
		waitStart := time.Now()
		sem <- struct{}{}
		p.queued.Add(-1)
		p.wait.Observe(time.Since(waitStart).Seconds())
		// Re-check after the (possibly long) wait for a slot: a cancelled
		// context must stop queued tasks from launching, not only break
		// the submission loop before the wait.
		if err := ctx.Err(); err != nil {
			<-sem
			errs[i] = err
			break
		}
		p.inFlight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.inFlight.Add(-1)
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Map runs fn over 0..n-1 with bounded concurrency and collects the
// results, preserving order. The first error cancels nothing but is
// reported (joined with any others).
func Map[T any](ctx context.Context, p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.ForEach(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
