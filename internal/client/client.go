// Package client defines the Endpoint abstraction through which all
// federated engines (Lusail and the baselines) talk to SPARQL endpoints,
// plus the concrete implementations used in experiments:
//
//   - InProcess: evaluates queries directly against a local store, standing
//     in for a co-located SPARQL server without HTTP overhead.
//   - HTTP: speaks the SPARQL 1.1 protocol to a remote endpoint.
//   - Instrumented: wraps any endpoint and counts requests, rows, and
//     estimated payload bytes (the communication-cost metrics the paper
//     reports).
//   - Latency: wraps any endpoint and injects WAN round-trip latency and
//     bandwidth delay (the geo-distributed Azure setting of Section 5.3).
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

	"lusail/internal/eval"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// Endpoint is a queryable SPARQL endpoint.
//
// Implementations must be safe for concurrent use; federated engines issue
// queries from many goroutines at once.
type Endpoint interface {
	// Name returns a stable identifier for the endpoint within a federation.
	Name() string
	// QueryStream evaluates a SPARQL query (SELECT or ASK) and returns
	// once the response head is in; rows are pulled with RowReader.Read,
	// and an ASK answers a sparql.BooleanReader. Every error that is not
	// the stream's own comes back here, before the head. The caller owns
	// the reader and must Close it on every path.
	QueryStream(ctx context.Context, query string) (sparql.RowReader, error)
	// Query is Collect of QueryStream in every implementation.
	Query(ctx context.Context, query string) (*sparql.Results, error)
}

// Collect drains ep's answer to query into a materialized result set: an
// ASK's boolean, or a SELECT's rows.
func Collect(ctx context.Context, ep Endpoint, query string) (*sparql.Results, error) {
	rd, err := ep.QueryStream(ctx, query)
	if err != nil {
		return nil, err
	}
	return sparql.ReadAllRows(rd)
}

// QueryStream is ep.QueryStream as a function, the spelling the
// benchmark harness (benchmark/trace.go) calls.
func QueryStream(ctx context.Context, ep Endpoint, query string) (sparql.RowReader, error) {
	return ep.QueryStream(ctx, query)
}

// Ask runs an ASK query and returns its boolean.
func Ask(ctx context.Context, ep Endpoint, query string) (bool, error) {
	res, err := Collect(ctx, ep, query)
	if err != nil {
		return false, err
	}
	return Boolean(res, ep.Name())
}

// Boolean extracts the boolean of an ASK result set, with the endpoint name
// used only for the error message. Callers that obtain results through a
// wrapper (e.g. the resilience layer's hedged probes) share Ask's contract
// this way.
func Boolean(res *sparql.Results, epName string) (bool, error) {
	if res == nil || !res.IsBoolean {
		return false, fmt.Errorf("client: endpoint %s returned non-boolean result for ASK", epName)
	}
	return res.Boolean, nil
}

// Count runs a scalar COUNT query and returns its value. ok=false reports
// a malformed response — not a single-row single-column result, a
// non-numeric cell, or a negative count — which callers must treat as
// "unknown", never as zero: a remote endpoint that answers with an error
// page or a truncated result set must not make a pattern look free.
func Count(ctx context.Context, ep Endpoint, query string) (n float64, ok bool, err error) {
	res, err := Collect(ctx, ep, query)
	if err != nil {
		return 0, false, err
	}
	n, ok = ScalarCount(res)
	return n, ok, nil
}

// ScalarCount extracts the value of a COUNT result set, with the same
// malformed-result contract as Count.
func ScalarCount(res *sparql.Results) (n float64, ok bool) {
	if res == nil || res.IsBoolean || len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, false
	}
	return CountValue(res.Rows[0][0])
}

// CountValue reads one COUNT cell: ok=false for a cell that is missing,
// non-numeric or negative.
func CountValue(t rdf.Term) (n float64, ok bool) {
	f, numeric := t.Numeric()
	return f, numeric && f >= 0
}

// SourceVar prefixes the cells of a source-selection request, SELECT
// ?lusail_a0 … WHERE { { SELECT (COUNT(*) AS ?lusail_a0) WHERE { tp0 } } … },
// which Instrumented counts as an ASK (its first variable is SourceVar+"0").
const SourceVar = "lusail_a"

// BatchQuery renders n single-solution probes as one SELECT: probe k is
// the group element elem(k, v), which binds its answer to ?v, v being
// prefix followed by k. BatchCells reads the answers.
func BatchQuery(n int, prefix string, elem func(k int, v string) sparql.Element) string {
	q := sparql.NewSelect()
	for k := 0; k < n; k++ {
		v := prefix + strconv.Itoa(k)
		q.Projection = append(q.Projection, sparql.Projection{Var: v})
		q.Where.Elements = append(q.Where.Elements, elem(k, v))
	}
	return q.String()
}

// BatchCells returns the answers to a BatchQuery of n probes in probe
// order, a zero term for a variable the response lacks. A response that
// is not exactly one solution is an error.
func BatchCells(res *sparql.Results, n int, prefix string) ([]rdf.Term, error) {
	if res.IsBoolean || len(res.Rows) != 1 {
		return nil, fmt.Errorf("client: batched probe answered with other than one solution")
	}
	cells := make([]rdf.Term, n)
	for k := range cells {
		if i := res.VarIndex(prefix + strconv.Itoa(k)); i >= 0 {
			cells[k] = res.Rows[0][i]
		}
	}
	return cells, nil
}

// isSourceProbe reports whether a response answers source selection: an
// ASK, or a request of SourceVar cells.
func isSourceProbe(boolean bool, vars []string) bool {
	return boolean || len(vars) > 0 && vars[0] == SourceVar+"0"
}

// InProcess is an endpoint evaluated in the same process. It models an
// endpoint whose network cost is negligible; wrap it with Latency to model
// a remote one.
type InProcess struct {
	name string
	ev   *eval.Evaluator
}

// NewInProcess returns an in-process endpoint over the given graph backend
// (an in-memory *store.Store or a disk-backed *diskstore.Store).
func NewInProcess(name string, st store.Graph) *InProcess {
	return &InProcess{name: name, ev: eval.New(st)}
}

// Name implements Endpoint.
func (e *InProcess) Name() string { return e.name }

// Store returns the underlying graph backend (used by data generators and
// tests).
func (e *InProcess) Store() store.Graph { return e.ev.Store() }

// QueryStream implements Endpoint with eval.Select's cursor. An ASK's
// cursor holds one empty row when there is a solution; its first row
// becomes the boolean answer, as endpoint.Handler writes it.
func (e *InProcess) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := sparql.Parse(query)
	var rows sparql.RowReader
	if err == nil {
		rows, err = e.ev.Select(q)
	}
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: %w", e.name, err)
	}
	if q.Form != sparql.AskForm {
		return rows, nil
	}
	defer rows.Close()
	_, err = rows.Read()
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("endpoint %s: %w", e.name, err)
	}
	return sparql.NewResultsReader(sparql.BoolResults(err == nil)), nil
}

// Query implements Endpoint.
func (e *InProcess) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return Collect(ctx, e, query)
}
