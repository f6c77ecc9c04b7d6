package resilience

import (
	"context"
	"errors"
	"slices"
	"sync"

	"lusail/internal/client"
	"lusail/internal/obs"
)

// Warning is one structured record of a degraded decision: an endpoint
// failure that partial-results mode absorbed instead of aborting the query.
// Warnings surface in Profile.Warnings so callers can tell a complete
// answer from a best-effort one.
type Warning struct {
	// Endpoint names the endpoint whose failure was absorbed.
	Endpoint string `json:"endpoint"`
	// Phase is the request phase that failed (subquery, count-probe, ...).
	Phase client.Phase `json:"phase"`
	// Message describes the absorbed failure.
	Message string `json:"message"`
}

// warnSink collects warnings across the goroutines of one query. It is
// carried in the context (like obs spans) so degrade decisions deep in the
// executor can record warnings without threading a sink through every
// signature.
type warnSink struct {
	mu sync.Mutex
	ws []Warning
}

type warnKey struct{}

// WithWarnings returns a context carrying a fresh warning sink for one
// query. TakeWarnings drains it when the query finishes.
func WithWarnings(ctx context.Context) context.Context {
	return context.WithValue(ctx, warnKey{}, &warnSink{})
}

// Warn records w into the context's warning sink; without a sink (a context
// not set up by WithWarnings) it is a no-op, so library code can warn
// unconditionally.
func Warn(ctx context.Context, w Warning) {
	if s, ok := ctx.Value(warnKey{}).(*warnSink); ok {
		s.mu.Lock()
		s.ws = append(s.ws, w)
		s.mu.Unlock()
	}
}

// TakeWarnings drains and returns the warnings recorded so far, nil when
// none (or when ctx has no sink).
func TakeWarnings(ctx context.Context) []Warning {
	s, ok := ctx.Value(warnKey{}).(*warnSink)
	if !ok {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ws
	s.ws = nil
	return out
}

// ProbeFailed is source selection's policy, Lusail's and FedX's alike, for
// a relevance probe of endpoint that failed with err: in every failure
// mode the endpoint stays a source of the pattern for this query, with a
// warning, and nothing is cached, since an outage is not data. It returns
// the failure as the endpoint's error, for SelectionFailed.
func ProbeFailed(ctx context.Context, endpoint string, err error) error {
	if ee := (*client.EndpointError)(nil); errors.As(err, &ee) {
		err = ee.Err // the warning names the endpoint once
	}
	obs.Default().Counter(obs.MetricSourceProbeFailures, "source-selection probes that failed and were conservatively treated as relevant").Inc()
	Warn(ctx, Warning{
		Endpoint: endpoint,
		Phase:    client.PhaseSourceSelection,
		Message:  "probe failed; endpoint conservatively treated as relevant: " + err.Error(),
	})
	return &client.EndpointError{Endpoint: endpoint, Phase: client.PhaseSourceSelection, Err: err}
}

// SelectionFailed returns the error that ends source selection of a
// pattern whose relevance probes returned errs, nil where answered: every
// probe failed, and no cached fact about the pattern (known) is left to
// degrade onto.
func SelectionFailed(errs []error, known bool) error {
	if known || len(errs) == 0 || slices.Contains(errs, nil) {
		return nil
	}
	return errors.Join(errs...)
}
