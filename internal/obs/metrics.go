package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical metric names shared across the engine, so exporters and the
// EXPLAIN renderer can pivot them without string duplication at call sites.
const (
	// Endpoint client traffic (package client).
	MetricRequests       = "lusail_endpoint_requests_total"
	MetricErrors         = "lusail_endpoint_errors_total"
	MetricAsks           = "lusail_endpoint_asks_total"
	MetricRequestSeconds = "lusail_endpoint_request_seconds"
	MetricResultRows     = "lusail_endpoint_result_rows"
	MetricResultBytes    = "lusail_endpoint_result_bytes"

	// ERH worker pool (package erh).
	MetricERHQueueDepth  = "lusail_erh_queue_depth"
	MetricERHInFlight    = "lusail_erh_in_flight"
	MetricERHWaitSeconds = "lusail_erh_task_wait_seconds"

	// Federation caches.
	MetricSourceCacheHits   = "lusail_source_cache_hits_total"
	MetricSourceCacheMisses = "lusail_source_cache_misses_total"
	MetricCheckCacheHits    = "lusail_check_cache_hits_total"
	MetricCheckCacheMisses  = "lusail_check_cache_misses_total"

	// Source-selection robustness (package federation).
	MetricSourceProbeFailures = "lusail_source_probe_failures_total"

	// Resilience layer: per-endpoint circuit breakers, hedged probes, and
	// partial-results degradation (package resilience and package core).
	MetricBreakerOpens      = "lusail_breaker_opens_total"
	MetricBreakerRejections = "lusail_breaker_rejections_total"
	MetricBreakerState      = "lusail_breaker_state"
	MetricHedges            = "lusail_hedged_requests_total"
	MetricHedgeWins         = "lusail_hedge_wins_total"
	MetricDegradedFailures  = "lusail_degraded_failures_total"
	MetricFaultsInjected    = "lusail_faults_injected_total"

	// Endpoint catalog: the probe-free first tier of source selection and
	// cardinality estimation (package catalog and its consumers).
	MetricCatalogSourceHits      = "lusail_catalog_source_hits_total"
	MetricCatalogSourcePartial   = "lusail_catalog_source_partial_total"
	MetricCatalogSourceFallbacks = "lusail_catalog_source_fallbacks_total"
	MetricCatalogCardHits        = "lusail_catalog_card_hits_total"
	MetricCatalogCardFallbacks   = "lusail_catalog_card_fallbacks_total"
	MetricCatalogRefreshes       = "lusail_catalog_refreshes_total"
	MetricCatalogStaleLookups    = "lusail_catalog_stale_lookups_total"
	MetricCatalogBuildSeconds    = "lusail_catalog_build_seconds"

	// Static query analysis (package sema, run by the engine before
	// decomposition).
	MetricSemaErrors   = "lusail_sema_errors_total"
	MetricSemaWarnings = "lusail_sema_warnings_total"
	MetricSemaRewrites = "lusail_sema_rewrites_total"

	// SPARQL protocol server (package endpoint).
	MetricHTTPRequests       = "lusail_http_requests_total"
	MetricHTTPErrors         = "lusail_http_errors_total"
	MetricHTTPRequestSeconds = "lusail_http_request_seconds"

	// lusaild federation service (package server): plan cache, result
	// cache, per-tenant admission, and streaming delivery.
	MetricPlanCacheHits        = "lusail_plan_cache_hits_total"
	MetricPlanCacheMisses      = "lusail_plan_cache_misses_total"
	MetricPlanCacheEvictions   = "lusail_plan_cache_evictions_total"
	MetricPlanCacheStale       = "lusail_plan_cache_stale_total"
	MetricPlanCacheSize        = "lusail_plan_cache_size"
	MetricResultCacheHits      = "lusail_result_cache_hits_total"
	MetricResultCacheMisses    = "lusail_result_cache_misses_total"
	MetricResultCacheEvictions = "lusail_result_cache_evictions_total"
	MetricResultCacheSize      = "lusail_result_cache_size"
	MetricServerQueries        = "lusail_server_queries_total"
	MetricServerErrors         = "lusail_server_errors_total"
	MetricServerQuerySeconds   = "lusail_server_query_seconds"
	MetricServerPlanSeconds    = "lusail_server_plan_seconds"
	MetricServerRowsStreamed   = "lusail_server_rows_streamed_total"
	MetricServerDisconnects    = "lusail_server_client_disconnects_total"
	MetricAdmissionThrottled   = "lusail_admission_throttled_total"
	MetricAdmissionShed        = "lusail_admission_shed_total"
	MetricAdmissionInFlight    = "lusail_admission_in_flight"
	MetricAdmissionQueued      = "lusail_admission_queued"
	MetricAdmissionWaitSeconds = "lusail_admission_wait_seconds"
)

// Fixed bucket layouts for the engine's histograms. Request latencies span
// sub-millisecond in-process calls to multi-second WAN bound joins; row and
// byte buckets are decades.
var (
	LatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	RowBuckets     = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}
	ByteBuckets    = []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
)

// Label is one metric label pair.
type Label struct {
	Key   string
	Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 for Prometheus semantics).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets, Prometheus-style:
// bucket i counts observations <= buckets[i], plus an implicit +Inf bucket,
// with a running sum and count.
type Histogram struct {
	buckets []float64
	counts  []atomic.Int64 // len(buckets)+1, last is +Inf
	sumBits atomic.Uint64  // float64 bits
	count   atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a metric family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64

	mu     sync.Mutex
	series map[string]*series // canonical label key -> series
	order  []string
}

// Registry holds metric families and renders them as Prometheus text or a
// JSON snapshot. The zero value is not usable; call NewRegistry. Most of
// the engine reports into Default().
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that endpoint wrappers, the ERH
// pool, the federation caches, and the SPARQL protocol server report into.
func Default() *Registry { return defaultRegistry }

func (r *Registry) family(name, help string, kind metricKind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: map[string]*series{}}
		r.fams[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func (f *family) get(labels []Label) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch f.kind {
		case counterKind:
			s.c = &Counter{}
		case gaugeKind:
			s.g = &Gauge{}
		case histogramKind:
			s.h = newHistogram(f.buckets)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter with the given name and labels, creating the
// family and series on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.family(name, help, counterKind, nil).get(labels).c
}

// Gauge returns the gauge with the given name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.family(name, help, gaugeKind, nil).get(labels).g
}

// Histogram returns the histogram with the given name, bucket layout, and
// labels. The bucket layout of the first registration wins.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.family(name, help, histogramKind, buckets).get(labels).h
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families in registration order and series in
// creation order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.order {
			s := f.series[key]
			switch f.kind {
			case counterKind:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(key), s.c.Value())
			case gaugeKind:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, braced(key), s.g.Value())
			case histogramKind:
				cumulative := int64(0)
				for i := range s.h.counts {
					cumulative += s.h.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, braced(withLE(key, leString(s.h.buckets, i))), cumulative)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, braced(key), formatFloat(s.h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, braced(key), s.h.Count())
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func braced(key string) string {
	if key == "" {
		return ""
	}
	return "{" + key + "}"
}

func withLE(key, le string) string {
	entry := `le="` + le + `"`
	if key == "" {
		return entry
	}
	return key + "," + entry
}

func leString(buckets []float64, i int) string {
	if i >= len(buckets) {
		return "+Inf"
	}
	return formatFloat(buckets[i])
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot types: a JSON-friendly copy of the registry used by the
// /debug/federation handler and the EXPLAIN per-endpoint table.

// FamilySnapshot is one metric family's state.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one labeled series' state.
type SeriesSnapshot struct {
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     float64            `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// HistogramSnapshot is a histogram's state with cumulative bucket counts.
type HistogramSnapshot struct {
	Buckets []BucketSnapshot `json:"buckets"`
	Sum     float64          `json:"sum"`
	Count   int64            `json:"count"`
}

// BucketSnapshot is one cumulative histogram bucket; LE is the upper bound
// rendered as a string so that "+Inf" survives JSON encoding.
type BucketSnapshot struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// Snapshot returns a point-in-time copy of every metric in the registry.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, key := range f.order {
			s := f.series[key]
			ss := SeriesSnapshot{}
			if len(s.labels) > 0 {
				ss.Labels = map[string]string{}
				for _, l := range s.labels {
					ss.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case counterKind:
				ss.Value = float64(s.c.Value())
			case gaugeKind:
				ss.Value = float64(s.g.Value())
			case histogramKind:
				hs := &HistogramSnapshot{Sum: s.h.Sum(), Count: s.h.Count()}
				cumulative := int64(0)
				for i := range s.h.counts {
					cumulative += s.h.counts[i].Load()
					hs.Buckets = append(hs.Buckets, BucketSnapshot{LE: leString(s.h.buckets, i), Count: cumulative})
				}
				ss.Histogram = hs
				ss.Value = hs.Sum
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.Unlock()
		out = append(out, fs)
	}
	return out
}

// MetricsHandler serves the registry in Prometheus text format (mounted at
// /metrics).
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// DebugHandler serves the registry as a JSON snapshot (mounted at
// /debug/federation).
func (r *Registry) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"metrics": r.Snapshot()})
	})
}
