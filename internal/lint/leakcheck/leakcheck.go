// Package leakcheck is a standard-library-only goroutine-leak detector for
// lifecycle tests: snapshot the goroutine count before the scenario, verify
// the count returns to the baseline after it. It is the check that every
// goroutine terminates: lusail-vet has no static analyzer for that
// invariant, so this package and lusail-bench -check-invariants are where
// it is enforced. A pool shutdown, breaker heal cycle, or hedged-probe
// cancellation that strands a goroutine is a cancellation-flow bug even
// when every call site looks well-formed.
//
// Typical use in a test:
//
//	func TestPoolShutdown(t *testing.T) {
//		leakcheck.Check(t)
//		... exercise the lifecycle ...
//	}
//
// Verification retries until the grace period expires: goroutines unwinding
// from a cancelled context need a moment to exit, and that teardown latency
// is not a leak.
package leakcheck

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// DefaultGrace is how long Check waits for goroutine counts to return to
// the baseline before declaring a leak.
const DefaultGrace = 5 * time.Second

// Snapshot is a goroutine-count baseline.
type Snapshot struct {
	count int
}

// Take records the current goroutine count.
func Take() Snapshot {
	return Snapshot{count: runtime.NumGoroutine()}
}

// Verify blocks until the goroutine count has returned to (or below) the
// baseline, or until grace expires — in which case it returns an error
// carrying a full stack dump of every live goroutine.
func Verify(base Snapshot, grace time.Duration) error {
	deadline := time.Now().Add(grace)
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= base.count {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return fmt.Errorf("leakcheck: %d goroutine(s) leaked (baseline %d, now %d, waited %v); live stacks:\n%s",
		now-base.count, base.count, now, grace, buf[:n])
}

// Check snapshots now and registers a cleanup that fails the test if the
// goroutine count has not returned to the baseline by the end of the test
// (after DefaultGrace). Call it before starting the lifecycle under test.
func Check(t testing.TB) {
	t.Helper()
	base := Take()
	t.Cleanup(func() {
		if err := Verify(base, DefaultGrace); err != nil {
			t.Error(err)
		}
	})
}
