package core

import (
	"context"
	"errors"
	"fmt"

	"lusail/internal/client"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
)

// streamEndpoint issues one streaming request through the resilience
// layer. Errors surfaced later by the returned reader are raw transport
// errors; the scan's collectors wrap them as *client.EndpointError.
func (e *Engine) streamEndpoint(ctx context.Context, phase client.Phase, name, query string) (sparql.RowReader, error) {
	ep := e.fed.Get(name)
	if ep == nil {
		return nil, &client.EndpointError{Endpoint: name, Phase: phase,
			Err: fmt.Errorf("unknown endpoint")}
	}
	rd, err := e.res.DoStream(ctx, ep, query)
	if err != nil {
		return nil, &client.EndpointError{Endpoint: name, Phase: phase, Err: err}
	}
	return rd, nil
}

// probeEndpoint issues one idempotent probe (ASK, COUNT, LIMIT-1 check)
// with tail hedging when the resilience layer is configured for it.
func (e *Engine) probeEndpoint(ctx context.Context, phase client.Phase, name, query string) (*sparql.Results, error) {
	ep := e.fed.Get(name)
	if ep == nil {
		return nil, &client.EndpointError{Endpoint: name, Phase: phase,
			Err: fmt.Errorf("unknown endpoint")}
	}
	res, err := e.res.DoHedged(ctx, ep, query)
	if err != nil {
		return nil, &client.EndpointError{Endpoint: name, Phase: phase, Err: err}
	}
	return res, nil
}

// degrade decides whether the failure of one endpoint request is absorbed
// into a partial answer. True means the caller must exclude the endpoint's
// contribution and carry on: the failure has been recorded as a structured
// Profile warning and counted. False means the error must propagate —
// either the engine is in FailFast mode, or the query itself is over
// (cancelled or timed out), in which case "degrading" would misreport a
// caller-initiated abort as an endpoint problem.
func (e *Engine) degrade(ctx context.Context, phase client.Phase, endpoint string, err error) bool {
	if e.opts.OnEndpointFailure != Degrade {
		return false
	}
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	e.degraded.Inc()
	resilience.Warn(ctx, resilience.Warning{
		Endpoint: endpoint,
		Phase:    phase,
		Message:  err.Error(),
	})
	return true
}

// gate returns the pool admission gate: the resilience manager's
// non-claiming breaker view (a nil manager admits everything). The
// claiming admission happens inside DoStream/DoHedged at dispatch, so gated
// tasks are admitted exactly once.
func (e *Engine) gate() resilience.Gate { return e.res.Gate() }
