package client

import (
	"context"
	"errors"
	"io"
	"time"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// headSize and rowSize model a response's size on the wire, in bytes, as
// a SPARQL JSON results document, without encoding it: one head and each
// row. Instrumented counts these sizes and Latency delays by them.

// headSize is 40 bytes and len(v)+4 per variable (an ASK has none).
func headSize(vars []string) int {
	size := 40
	for _, v := range vars {
		size += len(v) + 4
	}
	return size
}

// rowSize is 4 bytes and, per bound term, its text and about 30 bytes of
// {"x":{"type":"uri","value":"..."}} framing.
func rowSize(row []rdf.Term) int {
	size := 4
	for _, t := range row {
		if t.IsZero() {
			continue
		}
		size += len(t.Value) + len(t.Lang) + len(t.Datatype) + 30
	}
	return size
}

// QueryStream implements Endpoint: the request is counted up front and the
// returned reader accounts rows and bytes (the head's and each row's) as
// they are pulled, reporting latency (time to last row) and totals once,
// when the stream ends, fails or is closed.
func (e *Instrumented) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	if e.metrics != nil {
		e.metrics.Requests.Add(1)
	}
	e.requests.Inc()
	start := time.Now()
	rd, err := e.inner.QueryStream(ctx, query)
	if err != nil {
		if e.metrics != nil {
			e.metrics.Errors.Add(1)
		}
		e.errors.Inc()
		return nil, err
	}
	return &instrumentedReader{inner: rd, ids: sparql.IDsOf(rd), ep: e, start: start,
		bytes: int64(headSize(rd.Vars()))}, nil
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
	return row, r.count(rowSize(row), err)
}

// ReadIDs implements sparql.IDReader, counting like Read.
func (r *instrumentedReader) ReadIDs(dict *rdf.Dict) ([]uint32, error) {
	ids, err := r.ids.ReadIDs(dict)
	r.terms = dict.Terms(ids, r.terms)
	return ids, r.count(rowSize(r.terms), err)
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

// QueryStream implements Endpoint: the round-trip delay is paid before the
// head is returned and the transfer of the head and each row as rows are
// pulled, so a streamed consumer experiences first-row latency ≈ RTT
// rather than RTT + full-transfer time.
func (e *Latency) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	if err := sleepCtx(ctx, e.RTT); err != nil {
		return nil, err
	}
	rd, err := e.inner.QueryStream(ctx, query)
	if err != nil || e.BytesPerSecond <= 0 {
		return rd, err
	}
	r := &latencyReader{inner: rd, ids: sparql.IDsOf(rd), ctx: ctx, bps: e.BytesPerSecond}
	r.owe(headSize(rd.Vars()))
	return r, nil
}

// transferQuantum is the least delay a latencyReader sleeps: a timer of
// a few microseconds overshoots many times over (a 5 µs sleep took
// ~170 µs on a 2-core Linux host), so sleeping per row would bill a
// small row many times its transfer time.
const transferQuantum = time.Millisecond

// latencyReader delays rows by their transfer time at the simulated
// bandwidth. It owes each row's time and sleeps the debt off once it
// reaches transferQuantum, and what is left at the end of the stream.
type latencyReader struct {
	inner sparql.RowReader
	ids   sparql.IDReader
	terms []rdf.Term // ReadIDs' row, decoded for its size
	ctx   context.Context
	bps   int64
	owed  time.Duration
}

func (r *latencyReader) Vars() []string { return r.inner.Vars() }

func (r *latencyReader) Boolean() (bool, bool) {
	if br, ok := r.inner.(sparql.BooleanReader); ok {
		return br.Boolean()
	}
	return false, false
}

// owe adds the transfer time of size bytes to the debt.
func (r *latencyReader) owe(size int) {
	r.owed += time.Duration(float64(size) / float64(r.bps) * float64(time.Second))
}

// pay sleeps off the debt once it reaches transferQuantum, or all of it
// at the end of the stream.
func (r *latencyReader) pay(end bool) error {
	if r.owed < transferQuantum && !end {
		return nil
	}
	d := r.owed
	r.owed = 0
	return sleepCtx(r.ctx, d)
}

// after delays one read: a row by its transfer, the end of the stream by
// the debt left.
func (r *latencyReader) after(row []rdf.Term, err error) error {
	switch {
	case err == nil:
		r.owe(rowSize(row))
		return r.pay(false)
	case errors.Is(err, io.EOF):
		if perr := r.pay(true); perr != nil {
			return perr
		}
	}
	return err
}

func (r *latencyReader) Read() ([]rdf.Term, error) {
	row, err := r.inner.Read()
	if err := r.after(row, err); err != nil {
		return nil, err
	}
	return row, nil
}

// ReadIDs implements sparql.IDReader, delaying like Read.
func (r *latencyReader) ReadIDs(dict *rdf.Dict) ([]uint32, error) {
	ids, err := r.ids.ReadIDs(dict)
	if err == nil {
		r.terms = dict.Terms(ids, r.terms)
	}
	if err := r.after(r.terms, err); err != nil {
		return nil, err
	}
	return ids, nil
}

func (r *latencyReader) Close() error { return r.inner.Close() }
