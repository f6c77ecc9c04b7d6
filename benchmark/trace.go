package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/client"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// span is one line of the trace JSONL. Times are nanoseconds since the
// recorder was created. Spans of one query share QID; Parent is the ID of
// the span that caused this one (0 for a query's root span). QID 0 marks
// endpoint requests made on behalf of lusaild, whose request contexts the
// benchmark cannot reach.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	QID    int64  `json:"qid"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Set on "query" spans.
	Query string `json:"query,omitempty"`
	// Set on "request" spans: the endpoint, the request class, when the
	// response head arrived, and the rows read from it.
	Endpoint string `json:"endpoint,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Head     int64  `json:"head_ns,omitempty"`
	Rows     int64  `json:"rows,omitempty"`
	Err      string `json:"err,omitempty"`
}

// recorder keeps the spans of a traced phase in memory until the run ends.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) id() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// writeJSONL writes one span per line, ordered by start time.
func (r *recorder) writeJSONL(path string) (err error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// queryScope travels in the context of one traced query, so that the
// endpoint wrapper can attach request spans to the phase (plan or exec)
// that issued them.
type queryScope struct {
	qid    int64
	parent atomic.Int64
}

type scopeKey struct{}

func withScope(ctx context.Context, s *queryScope) context.Context {
	return context.WithValue(ctx, scopeKey{}, s)
}

// Request classes, by what the engine uses the request for.
const (
	kindAsk       = "ask"       // source selection or refinement probe
	kindCount     = "count"     // COUNT cardinality probe
	kindCheck     = "check"     // LADE check query
	kindBoundJoin = "boundjoin" // subquery with a VALUES block of bindings
	kindScan      = "scan"      // plain subquery
)

// classify names the class of a request from its query text, as the
// engine's query printer spells it.
func classify(query string) string {
	q := strings.TrimSpace(query)
	switch {
	case strings.HasPrefix(q, "ASK"):
		return kindAsk
	case strings.Contains(q, "COUNT("):
		return kindCount
	case strings.Contains(q, "NOT EXISTS"):
		return kindCheck
	case strings.Contains(q, "VALUES"):
		return kindBoundJoin
	}
	return kindScan
}

// tracedEndpoint wraps a client.Endpoint (outside the latency wrapper, so
// the simulated round trip is inside the span) and records one "request"
// span per call.
type tracedEndpoint struct {
	inner client.Endpoint
	rec   *recorder
}

func (e *tracedEndpoint) Name() string { return e.inner.Name() }

func (e *tracedEndpoint) begin(ctx context.Context, query string) span {
	s := span{ID: e.rec.id(), Name: "request", Endpoint: e.inner.Name(), Kind: classify(query), Start: e.rec.now()}
	if sc, ok := ctx.Value(scopeKey{}).(*queryScope); ok {
		s.QID, s.Parent = sc.qid, sc.parent.Load()
	}
	return s
}

func (e *tracedEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	s := e.begin(ctx, query)
	res, err := e.inner.Query(ctx, query)
	s.End = e.rec.now()
	s.Head = s.End
	if err != nil {
		s.Err = err.Error()
	} else {
		s.Rows = int64(len(res.Rows))
	}
	e.rec.add(s)
	return res, err
}

func (e *tracedEndpoint) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	s := e.begin(ctx, query)
	rd, err := client.QueryStream(ctx, e.inner, query)
	s.Head = e.rec.now()
	if err != nil {
		s.End, s.Err = s.Head, err.Error()
		e.rec.add(s)
		return nil, err
	}
	return &tracedReader{inner: rd, rec: e.rec, span: s}, nil
}

// tracedReader counts the rows of a streamed response and closes the span
// when the stream ends, fails or is closed, whichever comes first.
type tracedReader struct {
	inner sparql.RowReader
	rec   *recorder
	span  span
	done  bool
}

func (r *tracedReader) Vars() []string { return r.inner.Vars() }

func (r *tracedReader) Boolean() (bool, bool) {
	if br, ok := r.inner.(sparql.BooleanReader); ok {
		return br.Boolean()
	}
	return false, false
}

func (r *tracedReader) finish(err error) {
	if r.done {
		return
	}
	r.done = true
	r.span.End = r.rec.now()
	if err != nil {
		r.span.Err = err.Error()
	}
	r.rec.add(r.span)
}

func (r *tracedReader) Read() ([]rdf.Term, error) {
	row, err := r.inner.Read()
	switch {
	case err == nil:
		r.span.Rows++
	case errors.Is(err, io.EOF):
		r.finish(nil)
	default:
		r.finish(err)
	}
	return row, err
}

func (r *tracedReader) Close() error {
	r.finish(nil)
	return r.inner.Close()
}

// countingTransport is the http.RoundTripper between the engine and the
// children. It always counts requests, response-body bytes and connections
// dialled; while capture is on it also keeps response bodies, up to
// captureBytes, for the decoder replay.
type countingTransport struct {
	base     *http.Transport
	requests atomic.Int64
	bytes    atomic.Int64
	dials    atomic.Int64

	capture  atomic.Bool
	mu       sync.Mutex
	bodies   [][]byte
	captured int64
}

// captureBytes bounds the response bodies kept for the decoder replay.
const captureBytes = 32 << 20

func newCountingTransport() *countingTransport {
	t := &countingTransport{}
	d := &net.Dialer{Timeout: 10 * time.Second}
	t.base = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			t.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 8,
	}
	return t
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body := &countingBody{rc: resp.Body, t: t}
	if t.capture.Load() {
		body.keep = &bytes.Buffer{}
	}
	resp.Body = body
	return resp, nil
}

type countingBody struct {
	rc   io.ReadCloser
	t    *countingTransport
	keep *bytes.Buffer
	eof  bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.t.bytes.Add(int64(n))
	if b.keep != nil {
		b.keep.Write(p[:n])
		if errors.Is(err, io.EOF) {
			b.eof = true
		}
	}
	return n, err
}

func (b *countingBody) Close() error {
	// Only complete bodies are worth replaying through the decoder.
	if b.keep != nil && b.eof {
		b.t.mu.Lock()
		if b.t.captured+int64(b.keep.Len()) <= captureBytes {
			b.t.bodies = append(b.t.bodies, b.keep.Bytes())
			b.t.captured += int64(b.keep.Len())
		}
		b.t.mu.Unlock()
	}
	b.keep = nil
	return b.rc.Close()
}

// unionNs is the total length covered by a set of [start, end) intervals:
// the time during which at least one of them was open.
func unionNs(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	for _, v := range iv {
		switch {
		case !started || v[0] > end:
			total += v[1] - v[0]
			end, started = v[1], true
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// selfNs is a span's self time: its duration minus the part of it that its
// child spans cover.
func selfNs(parent [2]int64, children [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(children))
	for _, c := range children {
		if c[0] < parent[0] {
			c[0] = parent[0]
		}
		if c[1] > parent[1] {
			c[1] = parent[1]
		}
		if c[1] > c[0] {
			clipped = append(clipped, c)
		}
	}
	return parent[1] - parent[0] - unionNs(clipped)
}

// topPercentile returns the highest of the percentiles 50, 75, 90, 95 and
// 99 that still has at least ten of n samples beyond it (0 when even the
// median has not).
func topPercentile(n int) int {
	best := 0
	for _, p := range []int{50, 75, 90, 95, 99} {
		if float64(n)*float64(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of sorted values.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}
