package resilience

import (
	"context"
	"errors"
	"io"
	"time"

	"lusail/internal/client"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// DoStream runs one streaming query through the resilience layer: breaker
// check, the request itself, and outcome recording. Allow claims admission
// when the request dispatches; the outcome is recorded exactly once, at
// the stream's terminal event — clean EOF, first read error, or Close,
// whichever comes first — so a half-open trial slot claimed by Allow is
// always released even when the caller abandons the stream mid-way. A nil
// Manager streams directly.
func (m *Manager) DoStream(ctx context.Context, ep client.Endpoint, query string) (sparql.RowReader, error) {
	if m == nil {
		return ep.QueryStream(ctx, query)
	}
	if err := m.Allow(ep.Name()); err != nil {
		return nil, err
	}
	start := time.Now()
	rd, err := ep.QueryStream(ctx, query)
	if err != nil {
		d := time.Since(start)
		m.Record(ep.Name(), d, err)
		if m.probeObs != nil {
			m.probeObs(ep.Name(), d)
		}
		return nil, err
	}
	return &recordedReader{inner: rd, ids: sparql.IDsOf(rd), m: m, name: ep.Name(), start: start}, nil
}

// recordedReader feeds the stream's terminal outcome into the breaker and
// latency estimator exactly once.
type recordedReader struct {
	inner sparql.RowReader
	ids   sparql.IDReader
	m     *Manager
	name  string
	start time.Time
	done  bool
}

func (r *recordedReader) Vars() []string { return r.inner.Vars() }

func (r *recordedReader) Boolean() (bool, bool) {
	if br, ok := r.inner.(sparql.BooleanReader); ok {
		return br.Boolean()
	}
	return false, false
}

func (r *recordedReader) Read() ([]rdf.Term, error) {
	row, err := r.inner.Read()
	r.settle(err)
	return row, err
}

// ReadIDs implements sparql.IDReader, recording like Read.
func (r *recordedReader) ReadIDs(dict *rdf.Dict) ([]uint32, error) {
	ids, err := r.ids.ReadIDs(dict)
	r.settle(err)
	return ids, err
}

// settle records a terminal read: a clean EOF or the first error.
func (r *recordedReader) settle(err error) {
	switch {
	case err == nil:
	case errors.Is(err, io.EOF):
		r.record(nil)
	default:
		r.record(err)
	}
}

// Close records success when the stream is abandoned before its terminal
// event: the endpoint was serving rows, which says nothing bad about its
// health, and the trial slot must be released regardless.
func (r *recordedReader) Close() error {
	r.record(nil)
	return r.inner.Close()
}

func (r *recordedReader) record(err error) {
	if r.done {
		return
	}
	r.done = true
	d := time.Since(r.start)
	r.m.Record(r.name, d, err)
	if r.m.probeObs != nil {
		r.m.probeObs(r.name, d)
	}
}
