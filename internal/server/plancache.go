// Package server is lusaild, the service tier that `lusail serve` runs: a
// long-running, multi-tenant HTTP service exposing a Lusail engine over the
// SPARQL 1.1 protocol. Around the engine
// it layers the pieces a shared federation deployment needs: a single-flight
// plan cache so decomposition and GJV analysis run once per distinct query
// shape, a bounded result cache for repeated identical queries, per-tenant
// admission control (token-bucket quotas, a concurrency gate above the
// shared ERH pool, and queue-depth load shedding), and incremental result
// streaming with client-disconnect cancellation.
package server

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"lusail/internal/core"
	"lusail/internal/obs"
)

// PlanCache memoizes engine plans keyed on the sema canonical-form hash
// (sema.Key), invalidated by the engine's planning epoch. Canonical keying
// means every spelling of one query — different whitespace, prefix names,
// commutative pattern order, or internal variable names — maps to a single
// cached plan; the cached plan is built from the canonical text itself, so
// which spelling arrives first does not matter. Concurrent requests for the
// same uncached query single-flight the planning step: one request plans,
// the rest wait for its result. The cache is bounded; least-recently-used
// entries are evicted.
type PlanCache struct {
	eng *core.Engine
	max int

	mu      sync.Mutex
	entries map[string]*planEntry
	lru     *list.List // front = most recent; values are *planEntry

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	stale     *obs.Counter
	size      *obs.Gauge
	planSecs  *obs.Histogram
}

// planEntry is one cached (possibly in-flight) plan. done is closed when
// plan/err are valid; failed builds are removed from the cache so the next
// request retries.
type planEntry struct {
	key   string // sema.Key of the canonical form
	query string // canonical text, planned on a miss and shown in the snapshot
	done  chan struct{}
	plan  *core.Plan
	err   error
	elem  *list.Element
}

// NewPlanCache returns a plan cache over the engine holding at most max
// plans (<=0 selects the default of 256).
func NewPlanCache(eng *core.Engine, max int) *PlanCache {
	if max <= 0 {
		max = 256
	}
	reg := obs.Default()
	return &PlanCache{
		eng:       eng,
		max:       max,
		entries:   map[string]*planEntry{},
		lru:       list.New(),
		hits:      reg.Counter(obs.MetricPlanCacheHits, "plan cache hits (planning skipped)"),
		misses:    reg.Counter(obs.MetricPlanCacheMisses, "plan cache misses (query planned)"),
		evictions: reg.Counter(obs.MetricPlanCacheEvictions, "plans evicted by the LRU bound"),
		stale:     reg.Counter(obs.MetricPlanCacheStale, "plans discarded because the engine epoch changed"),
		size:      reg.Gauge(obs.MetricPlanCacheSize, "plans currently cached"),
		planSecs:  reg.Histogram(obs.MetricServerPlanSeconds, "planning latency on plan cache misses", obs.LatencyBuckets),
	}
}

// Get returns the plan for the query whose canonical form is canonical and
// whose cache key is key (sema.KeyOf(canonical)), planning the canonical
// text on a miss. The second return reports a cache hit. Concurrent callers
// for one key share a single planning run; a caller whose own context is
// cancelled while waiting returns its context error, without poisoning the
// cache for the others.
func (c *PlanCache) Get(ctx context.Context, key, canonical string) (*core.Plan, bool, error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if ok {
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if e.err != nil {
				// The builder failed (and removed the entry). A failure from
				// the builder's own cancelled context says nothing about the
				// query: retry as the builder if we are still alive.
				if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
					if ctx.Err() == nil {
						continue
					}
					return nil, false, ctx.Err()
				}
				return nil, false, e.err
			}
			if e.plan.Stale(c.eng) {
				c.stale.Inc()
				c.remove(e)
				continue
			}
			c.hits.Inc()
			return e.plan, true, nil
		}

		// Miss: publish an in-flight entry, then plan outside the lock.
		e = &planEntry{key: key, query: canonical, done: make(chan struct{})}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		for c.lru.Len() > c.max {
			oldest := c.lru.Back()
			if oldest == nil || oldest == e.elem {
				break
			}
			c.evictions.Inc()
			c.removeLocked(oldest.Value.(*planEntry))
		}
		c.size.Set(int64(c.lru.Len()))
		c.mu.Unlock()

		c.misses.Inc()
		t0 := time.Now()
		plan, err := c.eng.PlanString(ctx, canonical)
		e.plan, e.err = plan, err
		close(e.done)
		if err != nil {
			c.remove(e)
			return nil, false, err
		}
		c.planSecs.Observe(time.Since(t0).Seconds())
		return plan, false, nil
	}
}

// remove drops the entry if it is still the cached one for its query.
func (c *PlanCache) remove(e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(e)
}

func (c *PlanCache) removeLocked(e *planEntry) {
	if cur, ok := c.entries[e.key]; ok && cur == e {
		delete(c.entries, e.key)
		c.lru.Remove(e.elem)
		c.size.Set(int64(c.lru.Len()))
	}
}

// Len returns the number of cached entries (including in-flight ones).
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// PlanCacheEntry is one entry of the admin snapshot.
type PlanCacheEntry struct {
	Key        string     `json:"key"`
	Query      string     `json:"query"` // canonical text
	Epoch      core.Epoch `json:"epoch"`
	GJVs       []string   `json:"gjvs,omitempty"`
	Subqueries int        `json:"subqueries"`
	InFlight   bool       `json:"in_flight,omitempty"`
}

// Snapshot returns the cached entries, most recently used first, for the
// admin inspection route.
func (c *PlanCache) Snapshot() []PlanCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PlanCacheEntry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		entry := PlanCacheEntry{Key: e.key, Query: e.query}
		select {
		case <-e.done:
			if e.plan != nil {
				entry.Epoch = e.plan.Epoch()
				entry.GJVs = e.plan.GJVs()
				entry.Subqueries = e.plan.Subqueries()
			}
		default:
			entry.InFlight = true
		}
		out = append(out, entry)
	}
	return out
}
