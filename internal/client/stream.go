package client

import (
	"errors"

	"context"
	"io"
	"time"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// Streamer is implemented by endpoints that can deliver result rows
// incrementally, as they are decoded off the wire, instead of
// materializing the whole result set first. QueryStream returns after the
// response head has been received; rows are pulled with RowReader.Read.
// The caller owns the reader and must Close it on every path.
type Streamer interface {
	QueryStream(ctx context.Context, query string) (sparql.RowReader, error)
}

// QueryStream issues a query against ep, streaming when the endpoint
// implements Streamer and falling back to materialize-then-replay
// otherwise (in-process stores, fault injectors). The fallback preserves
// the RowReader contract exactly; only memory behavior differs.
func QueryStream(ctx context.Context, ep Endpoint, query string) (sparql.RowReader, error) {
	if s, ok := ep.(Streamer); ok {
		return s.QueryStream(ctx, query)
	}
	res, err := ep.Query(ctx, query)
	if err != nil {
		return nil, err
	}
	return sparql.NewResultsReader(res), nil
}

// RowSize estimates the wire size in bytes of one solution row, using the
// same model as ResultSize.
func RowSize(row []rdf.Term) int {
	size := 4
	for _, t := range row {
		if t.IsZero() {
			continue
		}
		size += len(t.Value) + len(t.Lang) + len(t.Datatype) + 30
	}
	return size
}

// QueryStream implements Streamer: the request is counted up front and the
// returned reader accounts rows and bytes as they are pulled, reporting
// latency (time to last row) and totals when the stream ends or is closed.
func (e *Instrumented) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	if e.metrics != nil {
		e.metrics.Requests.Add(1)
	}
	e.requests.Inc()
	start := time.Now()
	rd, err := QueryStream(ctx, e.inner, query)
	if err != nil {
		if e.metrics != nil {
			e.metrics.Errors.Add(1)
		}
		e.errors.Inc()
		return nil, err
	}
	return &instrumentedReader{inner: rd, ids: sparql.IDsOf(rd), ep: e, start: start}, nil
}

// instrumentedReader tees row/byte counts off a streamed response.
type instrumentedReader struct {
	inner sparql.RowReader
	ids   sparql.IDReader
	terms []rdf.Term // ReadIDs' row, decoded for its size
	ep    *Instrumented
	start time.Time
	rows  int64
	bytes int64
	done  bool
}

func (r *instrumentedReader) Vars() []string { return r.inner.Vars() }

func (r *instrumentedReader) Boolean() (bool, bool) {
	if br, ok := r.inner.(sparql.BooleanReader); ok {
		return br.Boolean()
	}
	return false, false
}

func (r *instrumentedReader) Read() ([]rdf.Term, error) {
	row, err := r.inner.Read()
	return row, r.count(RowSize(row), err)
}

// ReadIDs implements sparql.IDReader, counting like Read.
func (r *instrumentedReader) ReadIDs(dict *rdf.Dict) ([]uint32, error) {
	ids, err := r.ids.ReadIDs(dict)
	r.terms = dict.Terms(ids, r.terms)
	return ids, r.count(RowSize(r.terms), err)
}

// count accounts one read: a row of size bytes, the end of the stream, or
// its failure.
func (r *instrumentedReader) count(size int, err error) error {
	switch {
	case err == nil:
		r.rows++
		r.bytes += int64(size)
	case errors.Is(err, io.EOF):
		r.settle()
		return io.EOF
	default:
		r.fail()
	}
	return err
}

// settle records the completed stream's totals exactly once.
func (r *instrumentedReader) settle() {
	if r.done {
		return
	}
	r.done = true
	e := r.ep
	e.latency.Observe(time.Since(r.start).Seconds())
	if _, isBool := r.Boolean(); isSourceProbe(isBool, r.Vars()) {
		if e.metrics != nil {
			e.metrics.Asks.Add(1)
		}
		e.asks.Inc()
	}
	if e.metrics != nil {
		e.metrics.Rows.Add(r.rows)
		e.metrics.Bytes.Add(r.bytes)
	}
	e.rows.Observe(float64(r.rows))
	e.bytes.Observe(float64(r.bytes))
}

// fail records a mid-stream error exactly once; rows and bytes already
// transferred still count toward the communication totals.
func (r *instrumentedReader) fail() {
	if r.done {
		return
	}
	r.done = true
	e := r.ep
	e.latency.Observe(time.Since(r.start).Seconds())
	if e.metrics != nil {
		e.metrics.Errors.Add(1)
		e.metrics.Rows.Add(r.rows)
		e.metrics.Bytes.Add(r.bytes)
	}
	e.errors.Inc()
	e.rows.Observe(float64(r.rows))
	e.bytes.Observe(float64(r.bytes))
}

func (r *instrumentedReader) Close() error {
	r.settle()
	return r.inner.Close()
}

// QueryStream implements Streamer: the round-trip delay is paid before the
// head arrives and the bandwidth term is paid per row as rows are pulled,
// so a streamed consumer experiences first-row latency ≈ RTT rather than
// RTT + full-transfer time.
func (e *Latency) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	if err := sleepCtx(ctx, e.RTT); err != nil {
		return nil, err
	}
	rd, err := QueryStream(ctx, e.inner, query)
	if err != nil {
		return nil, err
	}
	if e.BytesPerSecond <= 0 {
		return rd, nil
	}
	return &latencyReader{inner: rd, ids: sparql.IDsOf(rd), ctx: ctx, bps: e.BytesPerSecond}, nil
}

// latencyReader delays each row by its transfer time at the simulated
// bandwidth.
type latencyReader struct {
	inner sparql.RowReader
	ids   sparql.IDReader
	terms []rdf.Term // ReadIDs' row, decoded for its size
	ctx   context.Context
	bps   int64
}

func (r *latencyReader) Vars() []string { return r.inner.Vars() }

func (r *latencyReader) Boolean() (bool, bool) {
	if br, ok := r.inner.(sparql.BooleanReader); ok {
		return br.Boolean()
	}
	return false, false
}

func (r *latencyReader) Read() ([]rdf.Term, error) {
	row, err := r.inner.Read()
	if err != nil {
		return nil, err
	}
	transfer := time.Duration(float64(RowSize(row)) / float64(r.bps) * float64(time.Second))
	if err := sleepCtx(r.ctx, transfer); err != nil {
		return nil, err
	}
	return row, nil
}

// ReadIDs implements sparql.IDReader, delaying like Read.
func (r *latencyReader) ReadIDs(dict *rdf.Dict) ([]uint32, error) {
	ids, err := r.ids.ReadIDs(dict)
	if err != nil {
		return nil, err
	}
	r.terms = dict.Terms(ids, r.terms)
	transfer := time.Duration(float64(RowSize(r.terms)) / float64(r.bps) * float64(time.Second))
	if err := sleepCtx(r.ctx, transfer); err != nil {
		return nil, err
	}
	return ids, nil
}

func (r *latencyReader) Close() error { return r.inner.Close() }
