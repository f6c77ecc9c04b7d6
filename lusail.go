// Package lusail is the public API of this repository: a federated SPARQL
// query processor over decentralized RDF graphs, reproducing the system of
// "Lusail: A System for Querying Linked Data at Scale" (PVLDB 11(4), 2017;
// demonstrated at SIGMOD 2017).
//
// A federation is a set of independently maintained SPARQL endpoints.
// Lusail answers a query over the union of their data by:
//
//  1. selecting the relevant endpoints per triple pattern (COUNT probes),
//  2. decomposing the query with LADE — instance-aware locality checks
//     that detect which join variables can be resolved inside endpoints
//     and which require a global join, and
//  3. executing the resulting subqueries with SAPE — selectivity-aware
//     scheduling that runs cheap subqueries concurrently, delays expensive
//     ones into bound joins, and joins results with a cost-ordered
//     parallel hash join.
//
// Quick start:
//
//	eps := []lusail.Endpoint{
//		lusail.NewHTTPEndpoint("dblp", "https://dblp.example/sparql"),
//		lusail.NewHTTPEndpoint("dbpedia", "https://dbpedia.example/sparql"),
//	}
//	eng, err := lusail.NewEngine(eps, lusail.DefaultOptions())
//	...
//	res, profile, err := eng.QueryString(ctx, "SELECT ?s WHERE { ... }")
//
// # Canonical call pattern
//
// Execution is streaming end to end: endpoint responses are decoded
// incrementally and flow through a pull-based operator pipeline, so memory
// is bounded by operator state, not result size. The primary entry point
// is the cursor:
//
//	rows, err := eng.Select(ctx, query) // SELECT only
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    row := rows.Row() // []Term aligned to rows.Vars()
//	}
//	if err := rows.Err(); err != nil { ... }
//	prof := rows.Profile() // available after Close
//
// Close is required on every path; it cancels in-flight endpoint work and
// finalizes the Profile. The remaining entry points are conveniences over
// the same pipeline — context first, query text in:
//
//	res, prof, err := eng.QueryString(ctx, query)         // SELECT / ASK, materialized
//	triples, prof, err := eng.ConstructString(ctx, query) // CONSTRUCT
//
// # Resilience
//
// Real federations are flaky. Options has a Resilience section that makes
// the engine fault-tolerant without changing its answers on healthy
// federations:
//
//	opts := lusail.DefaultOptions()
//	opts.OnEndpointFailure = lusail.Degrade        // partial results
//	opts.Resilience = lusail.DefaultResilience()   // breakers + hedged probes
//
// With OnEndpointFailure = Degrade, an endpoint failure during execution
// excludes that endpoint's contribution instead of aborting: the answer is
// complete over the endpoints that responded, and each absorbed failure is
// recorded as a structured entry in Profile.Warnings. Circuit breakers stop
// sending to endpoints whose recent failure rate crosses a threshold, and
// idempotent probes (ASK, COUNT, checks) are hedged with a second request
// when they outlive the endpoint's adaptive latency quantile. WithFaults
// wraps any endpoint with deterministic fault injection for testing.
//
// Endpoints can also be served from this process (see Serve and
// NewMemoryEndpoint), which is how the benchmark suite builds federations
// of up to 256 endpoints on one machine.
package lusail

import (
	"context"
	"io"
	"time"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/diskstore"
	"lusail/internal/endpoint"
	"lusail/internal/erh"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// Re-exported data-model types.
type (
	// Term is an RDF term (IRI, literal, or blank node).
	Term = rdf.Term
	// Triple is an RDF statement.
	Triple = rdf.Triple
	// Results is a SPARQL result set (SELECT solutions or ASK boolean).
	Results = sparql.Results
	// Query is a parsed SPARQL query.
	Query = sparql.Query
	// Endpoint is anything queryable with SPARQL: a remote HTTP endpoint,
	// an in-process store, or a wrapped/instrumented endpoint. QueryStream
	// is its one request method; Query is client.Collect of it.
	Endpoint = client.Endpoint
	// Engine is the Lusail federated query processor.
	Engine = core.Engine
	// Options configures the engine.
	Options = core.Options
	// Profile reports per-phase timings and planning counters of a query.
	Profile = core.Profile
	// Rows is the streaming cursor returned by Engine.Select and
	// Engine.ExecutePlanStream: iterate with Next/Row (or Scan/Binding),
	// check Err after the loop, and Close on every path. An ASK plan's
	// cursor yields one row when the answer is true and none when false.
	Rows = core.Rows
	// Plan is a reusable execution plan: the output of source selection and
	// LADE analysis for one query, executable many times with
	// Engine.ExecutePlanStream. A caller that caches Plans itself drops
	// one whose Plan.Stale reports a changed Epoch. lusaild caches none:
	// the engine's fact cache already spares every planning request of a
	// shape planned before, so planning again costs only CPU.
	Plan = core.Plan
	// Epoch identifies an engine's planning inputs (federation identity +
	// catalog generation); plans and caches keyed on it are invalidated
	// when it changes.
	Epoch = core.Epoch
	// ThresholdMode selects SAPE's delay rule.
	ThresholdMode = core.ThresholdMode
	// Metrics counts requests/rows/bytes flowing through endpoints.
	Metrics = client.Metrics
	// Store is an in-memory indexed triple store.
	Store = store.Store
	// Graph is the read interface both triple-store backends implement:
	// the in-memory Store and the disk-backed DiskStore. Endpoints serve
	// either through the same evaluator and HTTP handler.
	Graph = store.Graph
	// DiskStore is a read-only, disk-backed compressed triple store
	// (front-coded term dictionary + varint-delta triple blocks in three
	// permutations) accessed through a bounded LRU block cache. Build one
	// with BuildDiskStore or `lusail load`, open it with OpenDiskStore.
	DiskStore = diskstore.Store
	// DiskStoreOptions tunes how a DiskStore is opened (block-cache
	// memory budget).
	DiskStoreOptions = diskstore.Options
	// Server is a running HTTP SPARQL endpoint.
	Server = endpoint.Server
	// Catalog is a persistent endpoint catalog: one data summary per
	// endpoint that lets the engine answer source selection and
	// cardinality estimation without per-query COUNT probes. Assign
	// one to Options.Catalog to enable the probe-free tier.
	Catalog = catalog.Store
	// CatalogSummary is one endpoint's data summary inside a Catalog.
	CatalogSummary = catalog.Summary
	// FailureMode selects what an endpoint failure means during execution
	// (Options.OnEndpointFailure): FailFast aborts, Degrade excludes the
	// endpoint's contribution and records a Profile warning.
	FailureMode = core.FailureMode
	// ResilienceConfig tunes circuit breakers and hedged probes
	// (Options.Resilience). The zero value disables both.
	ResilienceConfig = resilience.Config
	// Warning is one structured record of an endpoint failure absorbed by
	// Degrade mode, surfaced in Profile.Warnings.
	Warning = resilience.Warning
	// FaultSpec describes deterministic fault injection for WithFaults.
	FaultSpec = resilience.FaultSpec
	// EndpointError is the typed error wrapping every failed endpoint
	// request, carrying the endpoint name and request phase. Extract with
	// errors.As.
	EndpointError = client.EndpointError
	// ParseError is the typed error for malformed SPARQL, carrying the byte
	// offset of the failure. Extract with errors.As.
	ParseError = sparql.ParseError
	// SemaError is the typed error for queries rejected by static query
	// analysis before planning (error-tier findings such as an unbound
	// projection). It carries the diagnostics; extract with errors.As.
	SemaError = sparql.SemaError
	// SemaDiagnostic is one static-analysis finding: check name, severity,
	// message, and (when source text was available) line/column.
	SemaDiagnostic = sparql.SemaDiagnostic
	// SemaSeverity is the tier of a SemaDiagnostic: SevError findings
	// reject the query, SevWarning and SevInfo surface in the profile.
	SemaSeverity = sparql.Severity
)

// Sentinel errors of the resilience layer; test with errors.Is.
var (
	// ErrBreakerOpen is the cause of requests rejected by an open circuit
	// breaker.
	ErrBreakerOpen = resilience.ErrBreakerOpen
	// ErrInjected is the cause of failures produced by WithFaults.
	ErrInjected = resilience.ErrInjected
)

// Failure modes for Options.OnEndpointFailure.
const (
	FailFast = core.FailFast
	Degrade  = core.Degrade
)

// Severity tiers of static-analysis diagnostics (SemaDiagnostic.Severity).
const (
	SevInfo    = sparql.SevInfo
	SevWarning = sparql.SevWarning
	SevError   = sparql.SevError
)

// Threshold modes for Options.Threshold (paper Section 5.4).
const (
	ThresholdMuSigma  = core.ThresholdMuSigma
	ThresholdMu       = core.ThresholdMu
	ThresholdMu2Sigma = core.ThresholdMu2Sigma
	ThresholdOutliers = core.ThresholdOutliers
)

// DefaultOptions returns the engine configuration used in the paper's main
// experiments (μ+σ delay threshold, caches on). Resilience is disabled by
// default; see DefaultResilience.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultResilience returns the recommended resilience settings for
// Options.Resilience: circuit breakers at a 50% failure rate over a
// 20-request window with a 5s cooldown, and p90 tail hedging for
// idempotent probes.
func DefaultResilience() ResilienceConfig { return resilience.DefaultConfig() }

// WithFaults wraps an endpoint with deterministic fault injection per spec:
// seeded, so a given spec reproduces the same request-by-request fault
// sequence on every run. For chaos tests and the `faults` bench experiment;
// injected failures wrap ErrInjected.
func WithFaults(ep Endpoint, spec FaultSpec) Endpoint {
	return resilience.WithFaults(ep, spec)
}

// NewEngine builds a Lusail engine over a federation of endpoints.
// Endpoint names must be unique.
func NewEngine(endpoints []Endpoint, opts Options) (*Engine, error) {
	fed, err := federation.New(endpoints...)
	if err != nil {
		return nil, err
	}
	return core.New(fed, opts)
}

// NewHTTPEndpoint returns a client for a remote SPARQL 1.1 endpoint with
// the default response-size cap (see HTTPOptions).
func NewHTTPEndpoint(name, url string) Endpoint {
	return client.NewHTTP(name, url)
}

// HTTPOptions tunes an HTTP endpoint client: the underlying *http.Client
// and the response-size cap, whose breach surfaces as an EndpointError
// wrapping ErrResponseTooLarge instead of a silent truncation.
type HTTPOptions = client.HTTPOptions

// ErrResponseTooLarge is the cause of requests aborted because an endpoint
// response exceeded the configured size cap; test with errors.Is.
var ErrResponseTooLarge = client.ErrResponseTooLarge

// NewHTTPEndpointWithOptions returns a client for a remote SPARQL 1.1
// endpoint with explicit options, or an error when they fail Validate.
func NewHTTPEndpointWithOptions(name, url string, opts HTTPOptions) (Endpoint, error) {
	return client.NewHTTPWithOptions(name, url, opts)
}

// NewMemoryEndpoint returns an in-process endpoint over the given triples.
func NewMemoryEndpoint(name string, triples []Triple) Endpoint {
	return client.NewInProcess(name, store.NewFromTriples(triples))
}

// NewMemoryStore returns an in-memory store holding the given triples.
func NewMemoryStore(triples []Triple) *Store {
	return store.NewFromTriples(triples)
}

// NewStoreEndpoint returns an in-process endpoint over an existing store.
func NewStoreEndpoint(name string, st *Store) Endpoint {
	return client.NewInProcess(name, st)
}

// NewGraphEndpoint returns an in-process endpoint over any graph backend —
// in-memory or disk-backed.
func NewGraphEndpoint(name string, g Graph) Endpoint {
	return client.NewInProcess(name, g)
}

// OpenDiskStore opens a disk-backed triple store previously built with
// BuildDiskStore or `lusail load`. The zero Options applies the default
// block-cache budget; the store is read-only and safe for concurrent use.
// Close it when done.
func OpenDiskStore(path string, opts DiskStoreOptions) (*DiskStore, error) {
	return diskstore.Open(path, opts)
}

// BuildDiskStore streams triples into a new disk-store file at path using
// bounded memory (external merge sort). For datasets larger than RAM, use
// `lusail load`, which streams straight from N-Triples files.
func BuildDiskStore(path string, triples []Triple) error {
	return diskstore.Build(path, triples, diskstore.BuildOptions{})
}

// Instrument wraps an endpoint so every request is counted in m. Several
// endpoints may share one Metrics for federation-wide totals.
func Instrument(ep Endpoint, m *Metrics) Endpoint {
	return client.NewInstrumented(ep, m)
}

// WithLatency wraps an endpoint with simulated network delay: a fixed
// round-trip time per request plus a transfer time proportional to response
// size at the given bandwidth (bytes/second; 0 disables). It reproduces
// geo-distributed deployments on one machine.
func WithLatency(ep Endpoint, rtt time.Duration, bytesPerSecond int64) Endpoint {
	return client.NewLatency(ep, rtt, bytesPerSecond)
}

// Serve starts an HTTP SPARQL endpoint for the triples on addr
// (e.g. "127.0.0.1:8080" or ":0" for an ephemeral port). The returned
// server reports its URL and is shut down with Close.
func Serve(name, addr string, triples []Triple) (*Server, error) {
	return endpoint.Serve(name, addr, store.NewFromTriples(triples))
}

// ServeGraph starts an HTTP SPARQL endpoint over an existing graph backend
// (in-memory or disk-backed). See Serve for the address semantics.
func ServeGraph(name, addr string, g Graph) (*Server, error) {
	return endpoint.Serve(name, addr, g)
}

// NewCatalog returns an empty catalog that saves to path (empty for
// in-memory only). Summaries older than ttl are treated as stale and the
// engine falls back to probes for them; ttl <= 0 means summaries never
// expire.
func NewCatalog(path string, ttl time.Duration) *Catalog {
	return catalog.NewStore(path, ttl)
}

// OpenCatalog loads a catalog previously saved to path (a missing file
// yields an empty catalog). See NewCatalog for the ttl semantics.
func OpenCatalog(path string, ttl time.Duration) (*Catalog, error) {
	return catalog.Open(path, ttl)
}

// BuildCatalog scans every endpoint and stores one fresh summary per
// endpoint into cat, replacing any existing ones. The scan is the same
// offline preprocessing the paper's index-based baselines perform.
func BuildCatalog(ctx context.Context, endpoints []Endpoint, cat *Catalog) error {
	fed, err := federation.New(endpoints...)
	if err != nil {
		return err
	}
	return catalog.Build(ctx, fed, erh.New(0), cat)
}

// RefreshCatalog rebuilds only the stale or missing summaries for the
// given endpoints, returning how many were rebuilt.
func RefreshCatalog(ctx context.Context, endpoints []Endpoint, cat *Catalog) (int, error) {
	fed, err := federation.New(endpoints...)
	if err != nil {
		return 0, err
	}
	return catalog.Refresh(ctx, fed, erh.New(0), cat)
}

// Parse parses a SPARQL query in the supported subset.
func Parse(query string) (*Query, error) { return sparql.Parse(query) }

// ParseNTriples reads an N-Triples document.
func ParseNTriples(r io.Reader) ([]Triple, error) { return rdf.ParseNTriples(r) }

// ParseTurtle reads a Turtle document (N-Triples is a subset of Turtle, so
// this reads both formats).
func ParseTurtle(r io.Reader) ([]Triple, error) { return rdf.ParseTurtle(r) }

// WriteNTriples writes triples in N-Triples format.
func WriteNTriples(w io.Writer, triples []Triple) error { return rdf.WriteNTriples(w, triples) }

// Convenience constructors for terms.

// IRI returns an IRI term.
func IRI(iri string) Term { return rdf.NewIRI(iri) }

// Literal returns a plain literal term.
func Literal(lex string) Term { return rdf.NewLiteral(lex) }

// LangLiteral returns a language-tagged literal term.
func LangLiteral(lex, lang string) Term { return rdf.NewLangLiteral(lex, lang) }

// TypedLiteral returns a literal with an explicit datatype IRI.
func TypedLiteral(lex, datatype string) Term { return rdf.NewTypedLiteral(lex, datatype) }

// Integer returns an xsd:integer literal.
func Integer(v int64) Term { return rdf.NewInteger(v) }
