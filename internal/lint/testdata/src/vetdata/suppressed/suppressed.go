// Package suppressed is a lusail-vet testdata package exercising the
// suppression directive machinery: justified directives silence their
// diagnostic, while malformed, unknown-analyzer, and unused directives are
// themselves reported under the "directive" pseudo-analyzer.
package suppressed

import (
	"context"
	"sync"
)

// daemonRoot is a legitimate context root: its directive (line above the
// flagged line) must silence ctxflow and produce no output.
func daemonRoot() context.Context {
	//lint:lusail-vet ctxflow -- detached daemon loop rooted on its own stop channel
	return context.Background()
}

// sameLine suppresses with the directive trailing the flagged line itself.
func sameLine() context.Context {
	return context.TODO() //lint:lusail-vet ctxflow -- placeholder root for a stubbed transport
}

// missingJustification keeps the violation visible: a directive without
// " -- why" is malformed, so both the ctxflow diagnostic and a directive
// diagnostic must appear.
func missingJustification() context.Context {
	//lint:lusail-vet ctxflow
	return context.Background() // want: ctxflow (directive above is malformed)
}

// unknownAnalyzer names an analyzer that does not exist.
func unknownAnalyzer() context.Context {
	//lint:lusail-vet nosuchcheck -- typo in the analyzer name
	return context.Background() // want: ctxflow (directive names no real analyzer)
}

// cleanButSuppressed carries a directive with nothing to suppress: the
// unused directive itself is the diagnostic.
func cleanButSuppressed(ctx context.Context) error {
	//lint:lusail-vet ctxflow -- stale justification left behind by a refactor
	return ctx.Err()
}

// multiName suppresses two analyzers on one line; only ctxflow fires here,
// and naming errwrapdiscipline too must still count the directive as used.
func multiName() context.Context {
	//lint:lusail-vet ctxflow,errwrapdiscipline -- shared root for a test harness stub
	return context.Background()
}

// mu is a package-level lock: lockHelper locks it, so calling lockHelper
// while holding it is a self-deadlock lockorder sees through the call.
var mu sync.Mutex

func lockHelper() {
	mu.Lock()
	mu.Unlock()
}

// relockSuppressed silences the Module-analyzer diagnostic: lockorder is
// interprocedural, so its directive must be honored through the global
// suppression pass, not the per-package one.
func relockSuppressed() {
	mu.Lock()
	defer mu.Unlock()
	//lint:lusail-vet lockorder -- fixture for a hang detector: this call must deadlock
	lockHelper()
}

// unusedNewName carries a directive for an interprocedural analyzer with
// nothing to suppress: the unused-directive diagnostic must fire for
// Module analyzer names too.
func unusedNewName() {
	//lint:lusail-vet lockorder -- stale note about a lock that was removed
	lockHelper()
}

// malformedNewName is malformed (no justification) while naming Module
// analyzers, so the directive diagnostic and the lockorder diagnostic both
// appear.
func malformedNewName() {
	mu.Lock()
	defer mu.Unlock()
	//lint:lusail-vet budgetbound,lockorder
	lockHelper() // want: lockorder (directive above is malformed)
}
