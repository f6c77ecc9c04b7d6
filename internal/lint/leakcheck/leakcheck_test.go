package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func TestVerifyCleanAfterExit(t *testing.T) {
	base := Take()
	done := make(chan struct{})
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			<-stop
			done <- struct{}{}
		}()
	}
	close(stop)
	for i := 0; i < 4; i++ {
		<-done
	}
	if err := Verify(base, DefaultGrace); err != nil {
		t.Errorf("Verify after goroutines exited: %v", err)
	}
}

func TestVerifyReportsLeak(t *testing.T) {
	// Goroutines of earlier tests, the test runner's included, may still be
	// exiting. Their exit would hide the leak below from a baseline that
	// counts them, so the baseline is the lowest count over a short window.
	base := Take()
	for i := 0; i < 10; i++ {
		time.Sleep(10 * time.Millisecond)
		if s := Take(); s.count < base.count {
			base = s
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	err := Verify(base, 50*time.Millisecond)
	if err == nil {
		t.Fatal("Verify missed a live goroutine")
	}
	if !strings.Contains(err.Error(), "goroutine(s) leaked") {
		t.Errorf("error lacks leak summary: %v", err)
	}
	if !strings.Contains(err.Error(), "leakcheck_test.go") {
		t.Errorf("error lacks the leaking stack: %v", err)
	}
}
