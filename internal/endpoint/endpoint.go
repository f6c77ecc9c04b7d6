// Package endpoint serves an RDF dataset over HTTP using the SPARQL 1.1
// protocol. Together with package store and package eval it plays the role
// of the SPARQL servers (Jena Fuseki, Virtuoso) that host each dataset in
// the paper's federations.
package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/sparql"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/eval"
	"lusail/internal/store"
)

// Handler is an http.Handler implementing the SPARQL protocol for one
// dataset: GET with ?query=, POST with form-encoded query, or POST with
// Content-Type application/sparql-query. Results are returned in the
// SPARQL 1.1 results format the Accept header asks for (sparql.Negotiate):
// JSON by default and for ASK, TSV, CSV or XML on request, and TSV with
// back-references for a lusail engine that names it. A SELECT or ASK
// answer is written row by row from the evaluator's cursor (eval.Select)
// through the format's sparql.RowWriter, as the service tier
// (internal/server, run by `lusail serve`) writes the engine's; the TSV
// writers take the cursor's id rows.
type Handler struct {
	ev *eval.Evaluator

	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// NewHandler returns a SPARQL protocol handler over the given graph
// backend (in-memory or disk-backed). The
// handler reports request counts, error counts, and request latency into
// the default obs registry under the endpoint's name, so /metrics shows the
// series (including empty latency histograms) as soon as the server starts.
func NewHandler(name string, st store.Graph) *Handler {
	reg := obs.Default()
	label := obs.L("endpoint", name)
	return &Handler{
		ev:       eval.New(st),
		requests: reg.Counter(obs.MetricHTTPRequests, "SPARQL protocol requests served", label),
		errors:   reg.Counter(obs.MetricHTTPErrors, "SPARQL protocol requests rejected", label),
		latency:  reg.Histogram(obs.MetricHTTPRequestSeconds, "SPARQL protocol request latency", obs.LatencyBuckets, label),
	}
}

// fail rejects a request, counting it as an error.
func (h *Handler) fail(w http.ResponseWriter, msg string, code int) {
	h.errors.Inc()
	http.Error(w, msg, code)
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.requests.Inc()
	start := time.Now()
	defer func() { h.latency.Observe(time.Since(start).Seconds()) }()

	query, err := ExtractQuery(r)
	if err != nil {
		h.fail(w, err.Error(), ExtractStatus(err))
		return
	}
	parsed, err := sparql.Parse(query)
	if err != nil {
		h.fail(w, err.Error(), http.StatusBadRequest)
		return
	}
	if parsed.Form == sparql.ConstructForm {
		triples, err := h.ev.Construct(parsed)
		if err != nil {
			h.fail(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/n-triples; charset=utf-8")
		_ = rdf.WriteNTriples(w, triples) // a failed write means the client is gone
		return
	}
	// eval.Select reports every error before the first row, while the
	// writer still holds the head; a failure after it aborts.
	rows, err := h.ev.Select(parsed)
	if err != nil {
		h.fail(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer rows.Close()
	ask := parsed.Form == sparql.AskForm
	f := sparql.Negotiate(r.Header.Get("Accept"), ask)
	out := sparql.NewRowWriter(w, f, rows.Vars())
	if ask {
		out = sparql.NewBoolWriter(w, f)
	}
	w.Header().Set("Content-Type", f.ContentType())
	// A TSV writer takes the evaluator's id rows as they are: with
	// back-references it decodes an id only at its first occurrence.
	cur, _ := rows.(idRows)
	iw, _ := out.(sparql.IDRowWriter)
	for err == nil {
		if cur != nil && iw != nil {
			var row []uint32
			if row, err = cur.ReadRow(); err == nil {
				err = iw.WriteIDs(row, cur.Dict())
			}
			continue
		}
		var row []rdf.Term
		if row, err = rows.Read(); err == nil {
			err = out.WriteRow(row)
		}
	}
	if errors.Is(err, io.EOF) {
		err = out.Close()
	}
	if err != nil {
		// Abort rather than return: a handler that returns ends a chunked
		// body cleanly, and a TSV body cut at a line boundary would then
		// read as a complete result.
		panic(http.ErrAbortHandler)
	}
}

// idRows is eval.Select's cursor for every query it evaluates, all but an
// index-answered COUNT: its rows read as ids that Dict decodes, 0 unbound.
type idRows interface {
	ReadRow() ([]uint32, error)
	Dict() sparql.TermDict
}

// maxQueryBytes caps a POST body: parsing what fits of a longer one would
// answer a different query.
const maxQueryBytes = 16 << 20

// ExtractQuery reads the query text of a request in any of the SPARQL
// protocol's three forms: GET with ?query=, POST with a form-encoded
// query, or POST with Content-Type application/sparql-query. A query of
// only whitespace is missing; a POST body over maxQueryBytes is an error.
func ExtractQuery(r *http.Request) (string, error) {
	var query string
	switch r.Method {
	case http.MethodGet:
		query = r.URL.Query().Get("query")
	case http.MethodPost:
		r.Body = http.MaxBytesReader(nil, r.Body, maxQueryBytes)
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/sparql-query") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return "", fmt.Errorf("reading query body: %w", err)
			}
			query = string(body)
		} else if err := r.ParseForm(); err != nil {
			return "", fmt.Errorf("parsing form: %w", err)
		} else {
			query = r.PostForm.Get("query")
		}
	default:
		return "", fmt.Errorf("method %s not allowed", r.Method)
	}
	if strings.TrimSpace(query) == "" {
		return "", errors.New("missing query parameter")
	}
	return query, nil
}

// ExtractStatus is the HTTP status that answers an ExtractQuery error:
// 413 for an oversized body, 400 otherwise.
func ExtractStatus(err error) int {
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// summaryHandler serves the endpoint's own catalog summary as JSON on
// /summary, so a federation catalog can be assembled by fetching one
// document per member instead of scanning each dataset over the SPARQL
// protocol. The summary is built on first request and memoized — the
// served stores are immutable once a server is up.
type summaryHandler struct {
	name string
	st   store.Graph

	once sync.Once
	sum  *catalog.Summary
	err  error
}

func (s *summaryHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.once.Do(func() {
		// Deliberately not r.Context(): a canceled first request must not
		// memoize a spurious error for every later caller.
		//lint:lusail-vet ctxflow -- sync.Once memoization must outlive the first request's context
		s.sum, s.err = catalog.BuildSummary(context.Background(), client.NewInProcess(s.name, s.st))
	})
	if s.err != nil {
		http.Error(w, s.err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.sum); err != nil {
		log.Printf("endpoint %s: writing summary: %v", s.name, err)
	}
}

// Server is a running SPARQL endpoint on a local TCP port.
type Server struct {
	Name string
	URL  string
	srv  *http.Server
	ln   net.Listener
}

// Serve starts an HTTP SPARQL endpoint on addr (e.g. "127.0.0.1:0") and
// returns once the listener is ready. Close releases it. Besides the SPARQL
// protocol on /sparql (and /), the server exposes the process-wide obs
// registry as Prometheus text on /metrics, a JSON snapshot on
// /debug/federation, and its own catalog data summary on /summary.
func Serve(name, addr string, st store.Graph) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: %w", name, err)
	}
	h := NewHandler(name, st)
	mux := http.NewServeMux()
	mux.Handle("/sparql", h)
	mux.Handle("/summary", &summaryHandler{name: name, st: st})
	mux.Handle("/metrics", obs.Default().MetricsHandler())
	mux.Handle("/debug/federation", obs.Default().DebugHandler())
	mux.Handle("/", h)
	srv := &http.Server{Handler: mux}
	s := &Server{
		Name: name,
		URL:  fmt.Sprintf("http://%s/sparql", ln.Addr().String()),
		srv:  srv,
		ln:   ln,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("endpoint %s: serve: %v", name, err)
		}
	}()
	return s, nil
}

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
