// Package server is lusaild, the service tier that `lusail serve` runs: a
// long-running, multi-tenant HTTP service exposing a Lusail engine over the
// SPARQL 1.1 protocol. Around the engine it layers the pieces a shared
// federation deployment needs: a bounded result cache for repeated queries
// of one canonical shape, per-tenant admission control (token-bucket
// quotas, a concurrency gate above the shared ERH pool, and queue-depth
// load shedding), and incremental result streaming with client-disconnect
// cancellation. It keeps no plans: the engine's fact cache already answers
// the planning requests of every shape it has planned.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/endpoint"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
	"lusail/internal/sparql/sema"
)

// Config configures a lusaild server around an existing engine.
type Config struct {
	// Engine is the federated engine to expose (required).
	Engine *core.Engine

	// PlanCacheSize is ignored: lusaild caches results only, and the
	// engine's fact cache already spares every planning request.
	//
	// Deprecated: ignored. Kept for the benchmark module, which sets it,
	// until the benchmark drops it (ROADMAP item 1).
	PlanCacheSize int

	// ResultCacheSize / ResultCacheMaxRows / ResultCacheTTL bound the
	// result cache (defaults 128 entries × 10000 rows × 30s).
	// DisableResultCache turns it off.
	ResultCacheSize    int
	ResultCacheMaxRows int
	ResultCacheTTL     time.Duration
	DisableResultCache bool

	// DefaultTenant is the admission quota applied to tenants without an
	// entry in Tenants. The zero value resolves to 4 concurrent queries, a
	// queue of 8, and no rate limit.
	DefaultTenant TenantConfig
	// Tenants maps tenant names to explicit quotas.
	Tenants map[string]TenantConfig
	// APIKeys maps API keys (X-API-Key header or Authorization: Bearer) to
	// tenant names, so keys can rotate without renaming tenants.
	APIKeys map[string]string

	// QueryTimeout bounds one query's execution (<=0: 5 minutes). The
	// client disconnecting cancels earlier.
	QueryTimeout time.Duration

	// Logf receives request-level log lines (default: log.Printf).
	Logf func(format string, args ...any)
}

// Server is a running lusaild instance: the SPARQL protocol on /sparql,
// health on /healthz, Prometheus text on /metrics, tenant inspection
// under /admin/, and pprof under /debug/pprof/.
type Server struct {
	URL string // http://host:port/sparql

	eng     *core.Engine
	results *ResultCache // nil when disabled
	adm     *Admission
	cfg     Config
	mux     *http.ServeMux
	srv     *http.Server
	ln      net.Listener

	queries     *obs.Counter
	errs        *obs.Counter
	querySecs   *obs.Histogram
	planSecs    *obs.Histogram
	rows        *obs.Counter
	disconnects *obs.Counter
}

// New assembles a server (without listening); Handler exposes its mux for
// tests and embedding. Start is the listen-and-serve convenience.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 5 * time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	reg := obs.Default()
	s := &Server{
		eng:         cfg.Engine,
		adm:         NewAdmission(cfg.DefaultTenant, cfg.Tenants),
		cfg:         cfg,
		queries:     reg.Counter(obs.MetricServerQueries, "queries received by lusaild"),
		errs:        reg.Counter(obs.MetricServerErrors, "queries rejected or failed in lusaild"),
		querySecs:   reg.Histogram(obs.MetricServerQuerySeconds, "end-to-end lusaild query latency", obs.LatencyBuckets),
		planSecs:    reg.Histogram(obs.MetricServerPlanSeconds, "planning latency on result cache misses", obs.LatencyBuckets),
		rows:        reg.Counter(obs.MetricServerRowsStreamed, "result rows streamed to clients"),
		disconnects: reg.Counter(obs.MetricServerDisconnects, "queries cancelled by client disconnect"),
	}
	if !cfg.DisableResultCache {
		s.results = NewResultCache(cfg.ResultCacheSize, cfg.ResultCacheMaxRows, cfg.ResultCacheTTL)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", s.handleSPARQL)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", obs.Default().MetricsHandler())
	mux.Handle("/debug/federation", obs.Default().DebugHandler())
	mux.HandleFunc("/admin/tenants", s.handleAdminTenants)
	// pprof registers on DefaultServeMux only via its init; a custom mux
	// needs the handlers wired explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		s.handleSPARQL(w, r)
	})
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Admission returns the server's admission controller.
func (s *Server) Admission() *Admission { return s.adm }

// Start listens on addr (e.g. ":8094" or "127.0.0.1:0") and serves until
// Shutdown or Close. It returns once the listener is ready.
func Start(addr string, cfg Config) (*Server, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	s.URL = fmt.Sprintf("http://%s/sparql", ln.Addr().String())
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.cfg.Logf("lusaild: serve: %v", err)
		}
	}()
	return s, nil
}

// Shutdown drains the server gracefully: the listener closes immediately,
// in-flight queries run to completion (bounded by ctx), then the server
// exits. This is the SIGINT/SIGTERM path of `lusail serve`.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// Close shuts the server down immediately, abandoning in-flight requests.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// tenantOf resolves the request's tenant: an API key (X-API-Key or
// Authorization: Bearer) mapped through Config.APIKeys wins, then the
// X-Lusail-Tenant header, then "anonymous".
func (s *Server) tenantOf(r *http.Request) string {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if key != "" {
		if tenant, ok := s.cfg.APIKeys[key]; ok {
			return tenant
		}
	}
	if t := r.Header.Get("X-Lusail-Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

// rejectionBody is the structured 429/503 response payload.
type rejectionBody struct {
	Error      string               `json:"error"`
	Tenant     string               `json:"tenant"`
	RetryAfter float64              `json:"retry_after_seconds,omitempty"`
	Warnings   []resilience.Warning `json:"warnings"`
}

// writeRejection renders an admission refusal as structured JSON with the
// appropriate status and Retry-After header.
func (s *Server) writeRejection(w http.ResponseWriter, rej *Rejection) {
	s.errs.Inc()
	w.Header().Set("Content-Type", "application/json")
	retry := rej.RetryAfter
	if retry <= 0 {
		retry = time.Second
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds()+1)))
	w.WriteHeader(rej.Status)
	body := rejectionBody{
		Error:      rej.Warning.Message,
		Tenant:     rej.Tenant,
		RetryAfter: retry.Seconds(),
		Warnings:   []resilience.Warning{rej.Warning},
	}
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.cfg.Logf("lusaild: writing rejection: %v", err)
	}
}

// semaRejectionBody is the structured 400 payload for queries the static
// analyzer rejects: one entry per error-tier finding, with check name,
// severity, and source position.
type semaRejectionBody struct {
	Error       string                  `json:"error"`
	Diagnostics []sparql.SemaDiagnostic `json:"diagnostics"`
}

// writeSemaRejection answers an error-tier sema finding with a structured
// 400. The query never reached admission or the engine.
func (s *Server) writeSemaRejection(w http.ResponseWriter, semaErr *sparql.SemaError) {
	s.errs.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	body := semaRejectionBody{
		Error:       semaErr.Error(),
		Diagnostics: semaErr.Diagnostics,
	}
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.cfg.Logf("lusaild: writing sema rejection: %v", err)
	}
}

// endpointWarnings filters a profile's warnings down to genuine endpoint
// degradations: sema findings describe the query text, so they neither mark
// an answer incomplete nor block result caching.
func endpointWarnings(ws []resilience.Warning) []resilience.Warning {
	var out []resilience.Warning
	for _, w := range ws {
		if w.Phase != client.PhaseSema {
			out = append(out, w)
		}
	}
	return out
}

// fail rejects a request with a plain error, counting it.
func (s *Server) fail(w http.ResponseWriter, msg string, code int) {
	s.errs.Inc()
	http.Error(w, msg, code)
}

// handleSPARQL is the SPARQL protocol endpoint.
func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	s.queries.Inc()
	start := time.Now()
	defer func() { s.querySecs.Observe(time.Since(start).Seconds()) }()

	query, err := endpoint.ExtractQuery(r)
	if err != nil {
		s.fail(w, err.Error(), endpoint.ExtractStatus(err))
		return
	}
	parsed, err := sparql.Parse(query)
	if err != nil {
		s.fail(w, err.Error(), http.StatusBadRequest)
		return
	}
	format := sparql.Negotiate(r.Header.Get("Accept"), parsed.Form == sparql.AskForm)

	// Static analysis runs before admission: a query the engine would
	// reject anyway (error-tier sema findings, e.g. a FILTER over a
	// variable its group never binds) is answered with a structured 400
	// without spending an admission slot or any endpoint traffic. The vet
	// sees the original source text, so diagnostics carry line/column
	// positions; warnings do not block and reach the client via headers.
	semaErr, semaWarnings := sema.Vet(parsed, query)
	if semaErr != nil {
		s.writeSemaRejection(w, semaErr)
		return
	}

	// Admission: quota and concurrency are charged before any engine work.
	tenant := s.tenantOf(r)
	release, err := s.adm.Admit(r.Context(), tenant)
	if err != nil {
		var rej *Rejection
		if errors.As(err, &rej) {
			s.writeRejection(w, rej)
			return
		}
		// The client went away while queued.
		s.disconnects.Inc()
		s.errs.Inc()
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()

	if parsed.Form == sparql.ConstructForm {
		s.handleConstruct(ctx, w, parsed)
		return
	}

	// The sema canonical form is the result cache key: it normalizes
	// whitespace, prefix declarations, commutative pattern order, and
	// internal variable names, so every spelling of one query shares one
	// cached result. The canonical text is what gets planned on a miss;
	// the engine's fact cache answers the planning requests of any shape
	// it has planned before.
	canonical := sema.CanonicalText(parsed)
	key := sema.KeyOf(canonical)
	if len(semaWarnings) > 0 {
		w.Header().Set("X-Lusail-Sema-Warnings", strconv.Itoa(len(semaWarnings)))
	}
	epoch := s.eng.Epoch()

	if s.results != nil {
		if res, ok := s.results.Get(key, epoch); ok {
			w.Header().Set("X-Lusail-Cache", "result-hit")
			s.writeResults(w, format, res)
			return
		}
	}

	t0 := time.Now()
	plan, err := s.eng.PlanString(ctx, canonical)
	if err != nil {
		s.queryError(w, ctx, fmt.Errorf("planning: %w", err))
		return
	}
	s.planSecs.Observe(time.Since(t0).Seconds())

	s.execute(ctx, w, format, plan, parsed.Form == sparql.AskForm, key, epoch)
}

// degradedTrailer counts the endpoint failures a Degrade-mode answer left
// out. It is sent as an HTTP trailer: whether an answer is complete is
// known only once its last row is written.
const degradedTrailer = "X-Lusail-Degraded"

// execute runs the plan through the engine's cursor and writes its answer
// in f as the pipeline produces it — the one execution path for every
// query form and results format. An ASK is answered by whether the cursor
// yields a row. Only blocking modifiers (ORDER BY, aggregates) delay the
// first row, and then only inside the engine. Rows are teed into the
// result cache on the side, up to its row bound.
//
// The failure rule is the same for every format. The writer holds the
// document until the first row is flushed, so an error before it is a
// clean 500; a failure after it aborts the response, so the client sees a
// broken transfer instead of a complete-looking document.
func (s *Server) execute(ctx context.Context, w http.ResponseWriter, f sparql.Format, plan *core.Plan, ask bool, key string, epoch core.Epoch) {
	rows, err := s.eng.ExecutePlanStream(ctx, plan)
	if err != nil {
		s.queryError(w, ctx, err)
		return
	}
	defer rows.Close()

	out := sparql.NewRowWriter(w, f, rows.Vars())
	if ask {
		out = sparql.NewBoolWriter(w, f)
	}
	w.Header().Set("Content-Type", f.ContentType())
	w.Header().Set("Trailer", degradedTrailer)
	flusher, _ := w.(http.Flusher)

	// Past the cache's row bound the copy is abandoned; streaming goes on.
	var cached [][]rdf.Term
	caching := s.results != nil
	emitted := 0
	for rows.Next() {
		if out.WriteRow(rows.Row()) != nil || out.Flush() != nil {
			break // client gone; Close cancels the pipeline
		}
		if flusher != nil {
			flusher.Flush()
		}
		emitted++
		if caching {
			cached = append(cached, append([]rdf.Term(nil), rows.Row()...))
			caching = len(cached) <= s.results.maxRows
		}
	}
	s.rows.Add(int64(emitted))
	if err := rows.Err(); err != nil && emitted == 0 {
		// The writer still holds the head: nothing is on the wire.
		w.Header().Del("Trailer")
		s.queryError(w, ctx, err)
		return
	}
	err = rows.Err()
	if err == nil {
		err = out.Err()
	}
	if err == nil {
		err = out.Close()
	}
	if err != nil {
		s.errs.Inc()
		if errors.Is(ctx.Err(), context.Canceled) || out.Err() != nil {
			s.disconnects.Inc()
			s.cfg.Logf("lusaild: client disconnected after %d rows", emitted)
		} else {
			s.cfg.Logf("lusaild: stream failed after %d rows: %v", emitted, err)
		}
		panic(http.ErrAbortHandler)
	}
	if err := rows.Close(); err != nil {
		return
	}
	// Sema findings describe the query, not the answer: only endpoint
	// warnings mark the response degraded or block result caching.
	degraded := endpointWarnings(rows.Profile().Warnings)
	if len(degraded) > 0 {
		w.Header().Set(degradedTrailer, strconv.Itoa(len(degraded)))
	}
	if caching {
		res := &sparql.Results{Vars: rows.Vars(), Rows: cached}
		if ask {
			res = sparql.BoolResults(emitted > 0)
		}
		s.results.Put(key, epoch, res, degraded)
	}
}

// handleConstruct evaluates a CONSTRUCT query and writes N-Triples.
func (s *Server) handleConstruct(ctx context.Context, w http.ResponseWriter, q *sparql.Query) {
	triples, _, err := s.eng.Construct(ctx, q)
	if err != nil {
		s.queryError(w, ctx, err)
		return
	}
	w.Header().Set("Content-Type", "application/n-triples; charset=utf-8")
	if err := rdf.WriteNTriples(w, triples); err != nil {
		s.cfg.Logf("lusaild: writing construct result: %v", err)
	}
}

// queryError maps an execution failure to a response: client disconnects
// are counted but unanswerable, everything else — a query timeout
// included — is a 500 (bad SPARQL was already rejected with 400 at parse).
func (s *Server) queryError(w http.ResponseWriter, ctx context.Context, err error) {
	if errors.Is(ctx.Err(), context.Canceled) {
		s.disconnects.Inc()
		s.errs.Inc()
		return
	}
	s.fail(w, err.Error(), http.StatusInternalServerError)
}

// writeResults renders a cached result set in the negotiated format.
func (s *Server) writeResults(w http.ResponseWriter, f sparql.Format, res *sparql.Results) {
	w.Header().Set("Content-Type", f.ContentType())
	if err := res.Write(w, f); err != nil {
		// Abort so a body cut at a TSV line boundary never ends cleanly.
		s.cfg.Logf("lusaild: writing results: %v", err)
		panic(http.ErrAbortHandler)
	}
}

// handleHealthz reports liveness and basic shape.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"endpoints": s.eng.Federation().Size(),
		"epoch":     s.eng.Epoch(),
	})
}

// handleAdminTenants serves per-tenant admission state.
func (s *Server) handleAdminTenants(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"tenants": s.adm.Snapshot()})
}
