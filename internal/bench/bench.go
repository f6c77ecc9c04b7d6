// Package bench is the benchmark substrate reproducing the paper's
// experimental study: synthetic stand-ins for the LUBM, QFed,
// LargeRDFBench, and Bio2RDF federations, a harness that runs every
// compared engine (Lusail, Lusail/LADE-only, FedX, HiBISCuS, SPLENDID)
// under identical conditions, and one experiment driver per table and
// figure in the paper (see DESIGN.md's experiment index).
package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"lusail/internal/baseline"
	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/erh"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// Dataset is one endpoint's data in a benchmark federation.
type Dataset struct {
	Name    string
	Triples []rdf.Triple
}

// Query is a named benchmark query.
type Query struct {
	Name string
	Text string
}

// EngineKind names the systems under comparison.
type EngineKind string

const (
	// Lusail is the full system (LADE + SAPE).
	Lusail EngineKind = "Lusail"
	// LusailCatalog is Lusail with the endpoint catalog installed: source
	// selection and cardinality estimation answer from precomputed
	// summaries instead of per-query ASK/COUNT probes. The catalog is
	// built offline before measurement, and shared with the index-based
	// baselines.
	LusailCatalog EngineKind = "Lusail+Cat"
	// LusailLADE is the ablation with SAPE disabled (Figure 14).
	LusailLADE EngineKind = "Lusail-LADE"
	// FedX is the index-free baseline.
	FedX EngineKind = "FedX"
	// HiBISCuS is FedX plus index-based source pruning.
	HiBISCuS EngineKind = "HiBISCuS"
	// SPLENDID is the VoID-statistics index-based baseline.
	SPLENDID EngineKind = "SPLENDID"
)

// NetworkProfile models the deployment's communication characteristics.
type NetworkProfile struct {
	// RTT per request; zero models a local cluster.
	RTT time.Duration
	// BytesPerSecond downstream bandwidth; zero disables the term.
	BytesPerSecond int64
}

// InProcess is a zero-cost network profile for correctness testing, where
// endpoint calls are plain function calls.
func InProcess() NetworkProfile { return NetworkProfile{} }

// LocalCluster models the paper's 84-core/480-core LAN setting: endpoints
// are separate processes on 1-10Gbps Ethernet, so every request costs a
// fraction of a millisecond. Without this term, in-process endpoints would
// underweight exactly the effect the paper measures — the number of remote
// requests an engine issues.
func LocalCluster() NetworkProfile {
	return NetworkProfile{RTT: 300 * time.Microsecond, BytesPerSecond: 125 << 20}
}

// GeoDistributed approximates the paper's 7-region Azure deployment,
// scaled down so benchmarks finish quickly: a few milliseconds of RTT and
// constrained bandwidth stand in for tens of milliseconds over WAN. The
// *relative* penalty between systems is what the experiment measures.
func GeoDistributed() NetworkProfile {
	return NetworkProfile{RTT: 2 * time.Millisecond, BytesPerSecond: 20 << 20}
}

// Fed is a live benchmark federation: instrumented (and possibly
// latency-wrapped) endpoints plus the lazily built endpoint catalog.
type Fed struct {
	Federation *federation.Federation
	Metrics    *client.Metrics
	Datasets   []Dataset

	rawFed   *federation.Federation // un-instrumented, for the catalog build
	catMu    sync.Mutex
	catStore *catalog.Store
}

// NewFed builds a federation from datasets under the given network profile.
func NewFed(datasets []Dataset, net NetworkProfile) (*Fed, error) {
	return newFed(datasets, net, nil)
}

// newFed builds the federation. When wrap is non-nil, each latency-wrapped
// endpoint passes through it before instrumentation, so injected faults (see
// NewFedWithFaults) still count as issued requests — the work an engine
// wastes on a misbehaving endpoint is exactly what the faults experiment
// measures.
func newFed(datasets []Dataset, net NetworkProfile, wrap func(client.Endpoint) client.Endpoint) (*Fed, error) {
	m := &client.Metrics{}
	var wrapped []client.Endpoint
	var raw []client.Endpoint
	for _, ds := range datasets {
		ep := client.NewInProcess(ds.Name, store.NewFromTriples(ds.Triples))
		raw = append(raw, ep)
		var e client.Endpoint = ep
		if net.RTT > 0 || net.BytesPerSecond > 0 {
			e = client.NewLatency(e, net.RTT, net.BytesPerSecond)
		}
		if wrap != nil {
			e = wrap(e)
		}
		wrapped = append(wrapped, client.NewInstrumented(e, m))
	}
	fed, err := federation.New(wrapped...)
	if err != nil {
		return nil, err
	}
	rawFed, err := federation.New(raw...)
	if err != nil {
		return nil, err
	}
	return &Fed{
		Federation: fed,
		Metrics:    m,
		Datasets:   datasets,
		rawFed:     rawFed,
	}, nil
}

// EnsureCatalog builds the endpoint catalog if it has not been built yet.
// It is the one data summary in the tree: Lusail+Cat answers its probes
// from it, and it stands in for the HiBISCuS and SPLENDID indexes. The
// build runs against the raw (un-delayed) endpoints: it is an offline
// preprocessing phase whose cost is reported separately (Section 5.1 of the
// paper), not charged to queries.
func (f *Fed) EnsureCatalog(ctx context.Context) (*catalog.Store, error) {
	f.catMu.Lock()
	defer f.catMu.Unlock()
	if f.catStore != nil {
		return f.catStore, nil
	}
	st := catalog.NewStore("", 0) // in-memory, never stale
	if err := catalog.Build(ctx, f.rawFed, erh.New(0), st); err != nil {
		return nil, fmt.Errorf("bench: building catalog: %w", err)
	}
	f.catStore = st
	return st, nil
}

// engine abstracts the systems under test.
type engine interface {
	QueryString(ctx context.Context, query string) (*sparql.Results, error)
}

// lusailAdapter adapts core.Engine's three-value return and keeps the last
// execution profile around so the harness can report probe counts.
type lusailAdapter struct {
	e    *core.Engine
	mu   sync.Mutex
	last *core.Profile
}

func (a *lusailAdapter) QueryString(ctx context.Context, q string) (*sparql.Results, error) {
	res, prof, err := a.e.QueryString(ctx, q)
	a.mu.Lock()
	a.last = prof
	a.mu.Unlock()
	return res, err
}

// lastProfile returns the profile of the most recent query, or nil.
func (a *lusailAdapter) lastProfile() *core.Profile {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last
}

// NewEngine constructs a fresh engine of the given kind over the
// federation (cold caches).
func (f *Fed) NewEngine(ctx context.Context, kind EngineKind) (engine, error) {
	switch kind {
	case Lusail:
		return &lusailAdapter{e: core.MustNew(f.Federation, core.DefaultOptions())}, nil
	case LusailCatalog:
		st, err := f.EnsureCatalog(ctx)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.Catalog = st
		return &lusailAdapter{e: core.MustNew(f.Federation, opts)}, nil
	case LusailLADE:
		opts := core.DefaultOptions()
		opts.DisableSAPE = true
		return &lusailAdapter{e: core.MustNew(f.Federation, opts)}, nil
	case FedX:
		return baseline.NewFedX(f.Federation), nil
	case HiBISCuS, SPLENDID:
		st, err := f.EnsureCatalog(ctx)
		if err != nil {
			return nil, err
		}
		if kind == HiBISCuS {
			return baseline.NewHiBISCuS(f.Federation, st), nil
		}
		return baseline.NewSPLENDID(f.Federation, st), nil
	}
	return nil, fmt.Errorf("bench: unknown engine %q", kind)
}

// NewLusail returns the full core engine (for profile-based experiments).
// It panics on invalid options; benchmarks construct options statically.
func (f *Fed) NewLusail(opts core.Options) *core.Engine {
	return core.MustNew(f.Federation, opts)
}

// Result is one measured query execution.
type Result struct {
	System   EngineKind
	Query    string
	Time     time.Duration
	Requests int64
	Rows     int64
	Bytes    int64
	// Asks counts ASK probes issued for source selection (all engines).
	Asks int64
	// CountProbes and CatalogHits come from the Lusail execution profile:
	// SELECT COUNT probes issued vs cardinalities answered by the catalog.
	// Both stay zero for non-Lusail engines.
	CountProbes int64
	CatalogHits int64
	Results     int // result-set size
	Err         error
	TimedOut    bool
}

// RunOptions controls a measurement.
type RunOptions struct {
	// Timeout aborts a query (the paper used one hour; benchmarks here use
	// seconds). Zero means no timeout.
	Timeout time.Duration
	// Repeats runs the query this many times on a warm engine and reports
	// the average of all but the first run (the paper's protocol: three
	// runs, average of the last two). Values < 2 measure a single run.
	Repeats int
}

// Run measures one query on one engine kind.
func (f *Fed) Run(ctx context.Context, kind EngineKind, query string, opts RunOptions) Result {
	eng, err := f.NewEngine(ctx, kind)
	if err != nil {
		return Result{System: kind, Err: err}
	}
	return f.runOn(ctx, eng, kind, query, opts)
}

func (f *Fed) runOn(ctx context.Context, eng engine, kind EngineKind, query string, opts RunOptions) Result {
	repeats := opts.Repeats
	if repeats < 1 {
		repeats = 1
	}
	var total time.Duration
	var res Result
	res.System = kind
	counted := 0
	for i := 0; i < repeats; i++ {
		before := f.Metrics.Snapshot()
		runCtx := ctx
		cancel := context.CancelFunc(func() {})
		if opts.Timeout > 0 {
			runCtx, cancel = context.WithTimeout(ctx, opts.Timeout)
		}
		start := time.Now()
		out, err := eng.QueryString(runCtx, query)
		elapsed := time.Since(start)
		cancel()
		delta := f.Metrics.Snapshot().Sub(before)
		if err != nil {
			res.Err = err
			res.TimedOut = runCtx.Err() != nil
			res.Time = elapsed
			res.Requests += delta.Requests
			return res
		}
		if i == 0 && repeats > 1 {
			continue // warmup run excluded from the average, like the paper
		}
		total += elapsed
		counted++
		res.Requests += delta.Requests
		res.Rows += delta.Rows
		res.Bytes += delta.Bytes
		res.Asks += delta.Asks
		if a, ok := eng.(*lusailAdapter); ok {
			if prof := a.lastProfile(); prof != nil {
				res.CountProbes += int64(prof.CountProbes)
				res.CatalogHits += int64(prof.CatalogHits)
			}
		}
		res.Results = out.Len()
	}
	if counted > 0 {
		res.Time = total / time.Duration(counted)
		res.Requests /= int64(counted)
		res.Rows /= int64(counted)
		res.Bytes /= int64(counted)
		res.Asks /= int64(counted)
		res.CountProbes /= int64(counted)
		res.CatalogHits /= int64(counted)
	}
	return res
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as fixed-width text.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("== " + t.Title + " ==\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	writeRow(dashes(widths))
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// FormatResult renders a Result cell: time in ms, TO for timeout, ERR for
// other failures.
func FormatResult(r Result) string {
	if r.TimedOut {
		return "TO"
	}
	if r.Err != nil {
		return "ERR"
	}
	return FormatDuration(r.Time)
}

// FormatDuration prints a duration in adaptive units.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
