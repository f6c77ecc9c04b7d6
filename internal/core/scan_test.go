package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lusail/internal/client"
	"lusail/internal/federation"
	"lusail/internal/lint/leakcheck"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/resilience"
	"lusail/internal/sparql"
)

// funcRows is a response over vars whose rows next returns, interned into
// the reader's dictionary; io.EOF ends it.
type funcRows struct {
	vars []string
	next func(dict *rdf.Dict) ([]uint32, error)
}

func (r funcRows) Vars() []string                           { return r.vars }
func (r funcRows) ReadIDs(dict *rdf.Dict) ([]uint32, error) { return r.next(dict) }
func (r funcRows) Close() error                             { return nil }
func (r funcRows) Read() ([]rdf.Term, error) {
	dict := rdf.NewDict()
	ids, err := r.next(dict)
	return dict.Terms(ids, nil), err
}

// funcEndpoint answers every request with the response open returns for
// the request's context.
type funcEndpoint struct {
	name string
	open func(ctx context.Context) funcRows
}

func (e funcEndpoint) Name() string { return e.name }
func (e funcEndpoint) QueryStream(ctx context.Context, _ string) (sparql.RowReader, error) {
	return e.open(ctx), nil
}
func (e funcEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return client.Collect(ctx, e, query)
}

// exID interns http://ex/<name>.
func exID(dict *rdf.Dict, name string) uint32 {
	ids := make([]uint32, 1)
	dict.InternRow([]rdf.Term{rdf.NewIRI("http://ex/" + name)}, ids)
	return ids[0]
}

// newFuncEngine returns an engine over one funcEndpoint per open, named
// ep0, ep1, ..., and the subquery {?x ex:p ex:o} at all of them.
func newFuncEngine(t testing.TB, mode FailureMode, opens ...func(ctx context.Context) funcRows) (*Engine, *Subquery) {
	t.Helper()
	q, err := sparql.Parse(`SELECT * WHERE { ?x <http://ex/p> <http://ex/o> }`)
	if err != nil {
		t.Fatal(err)
	}
	sq := &Subquery{Patterns: []sparql.TriplePattern{q.Where.Elements[0].(sparql.TriplePattern)}}
	var eps []client.Endpoint
	for i, open := range opens {
		sq.Sources = append(sq.Sources, fmt.Sprintf("ep%d", i))
		eps = append(eps, funcEndpoint{sq.Sources[i], open})
	}
	opts := DefaultOptions()
	opts.OnEndpointFailure = mode
	return MustNew(federation.MustNew(eps...), opts), sq
}

// newFuncScan returns a scan of newFuncEngine's subquery.
func newFuncScan(t testing.TB, ctx context.Context, mode FailureMode, opens ...func(ctx context.Context) funcRows) (*scanStream, *rdf.Dict) {
	t.Helper()
	e, sq := newFuncEngine(t, mode, opens...)
	dict := rdf.NewDict()
	return e.newScanStream(ctx, sq, client.PhaseSubquery, dict, nil), dict
}

// A row is visible to the consumer as soon as it is decoded: Next returns
// an endpoint's first row while the endpoint still holds back the rest.
func TestScanQueueFirstRowNotBatched(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	var released atomic.Bool
	safety := time.AfterFunc(10*time.Second, func() { released.Store(true); close(release) })
	defer safety.Stop()
	s, dict := newFuncScan(t, context.Background(), FailFast, func(ctx context.Context) funcRows {
		n := 0
		return funcRows{[]string{"x"}, func(dict *rdf.Dict) ([]uint32, error) {
			if n++; n == 1 {
				return []uint32{exID(dict, "a")}, nil
			}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, io.EOF
		}}
	})
	defer s.Close()
	if !s.Next() {
		t.Fatalf("no row: %v", s.Err())
	}
	if released.Load() {
		t.Fatal("the first row arrived only once the endpoint released the rest")
	}
	if got := s.Row(); len(got) != 1 || got[0] != exID(dict, "a") {
		t.Errorf("row %v, want [%d]", got, exID(dict, "a"))
	}
	if safety.Stop() {
		close(release)
	}
	if s.Next() {
		t.Errorf("a second row: %v", s.Row())
	}
	if err := s.Err(); err != nil {
		t.Error(err)
	}
}

// endless answers rows of ?x without end, counting the rows read.
func endless(reads *atomic.Int64) func(ctx context.Context) funcRows {
	return func(ctx context.Context) funcRows {
		return funcRows{[]string{"x"}, func(dict *rdf.Dict) ([]uint32, error) {
			reads.Add(1)
			return []uint32{exID(dict, "a")}, nil
		}}
	}
}

// Closing a scan whose collectors wait on a full queue stops them: Close
// returns nil once every goroutine of the scan is gone.
func TestScanQueueCloseWithFullQueue(t *testing.T) {
	leakcheck.Check(t)
	var reads [2]atomic.Int64
	s, _ := newFuncScan(t, context.Background(), FailFast, endless(&reads[0]), endless(&reads[1]))
	defer s.Close()
	if !s.Next() {
		t.Fatalf("no row: %v", s.Err())
	}
	// Each collector holds one row it read but could not queue once both wait
	// on the full queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		queued, held := s.nqueued, s.held
		s.mu.Unlock()
		taken := s.rows + int64(s.left)
		if queued+held == scanBuf && reads[0].Load()+reads[1].Load() == taken+int64(queued)+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the queue did not fill: %d queued, %d and %d rows read", queued, reads[0].Load(), reads[1].Load())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if s.Next() {
		t.Error("Next after Close")
	}
}

// Cancelling the query while the consumer waits on an empty queue ends
// the scan with the cancellation, and Close leaves no goroutine behind.
func TestScanQueueCancelWhileWaiting(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var blocked sync.WaitGroup
	blocked.Add(2)
	stall := func(ctx context.Context) funcRows {
		return funcRows{[]string{"x"}, func(*rdf.Dict) ([]uint32, error) {
			blocked.Done()
			<-ctx.Done()
			return nil, ctx.Err()
		}}
	}
	s, _ := newFuncScan(t, ctx, FailFast, stall, stall)
	go func() {
		blocked.Wait()
		cancel()
	}()
	if s.Next() {
		t.Fatalf("a row from stalled endpoints: %v", s.Row())
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err = %v, want the cancellation", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// A subquery of ground patterns binds no variable: each source that holds
// them answers one row of width zero.
func TestScanQueueGroundSubquery(t *testing.T) {
	c := newSwitchCase(t, 4)
	for _, tc := range []struct {
		x    string
		want int
	}{{"x0", 2}, {"x1", 1}, {"x8", 0}} { // x0 at both endpoints, x1 at ep1, x8 nowhere
		q, err := sparql.Parse(fmt.Sprintf(`SELECT * WHERE { <http://ex/%s> a <http://ex/C> }`, tc.x))
		if err != nil {
			t.Fatal(err)
		}
		sq := &Subquery{Patterns: []sparql.TriplePattern{q.Where.Elements[0].(sparql.TriplePattern)}, Sources: []string{"ep0", "ep1"}}
		s := c.e.newScanStream(context.Background(), sq, client.PhaseSubquery, c.dict, nil)
		n := 0
		for s.Next() {
			if len(s.Row()) != 0 {
				t.Errorf("%s: row %v, want width 0", tc.x, s.Row())
			}
			n++
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if n != tc.want {
			t.Errorf("%s: %d rows, want %d", tc.x, n, tc.want)
		}
	}
}

// An endpoint that fails mid-stream: the rows it had sent are delivered,
// then FailFast reports the failure and Degrade a warning.
func TestScanQueueMidStreamFailure(t *testing.T) {
	const sent = 3
	boom := errors.New("connection reset")
	failing := func(ctx context.Context) funcRows {
		n := 0
		return funcRows{[]string{"x"}, func(dict *rdf.Dict) ([]uint32, error) {
			if n++; n > sent {
				return nil, boom
			}
			return []uint32{exID(dict, fmt.Sprintf("r%d", n))}, nil
		}}
	}
	for _, mode := range []FailureMode{FailFast, Degrade} {
		ctx := resilience.WithWarnings(context.Background())
		s, _ := newFuncScan(t, ctx, mode, failing)
		n := 0
		for s.Next() {
			n++
		}
		err := s.Err()
		s.Close()
		if n != sent {
			t.Errorf("mode %v: %d rows, want the %d sent before the failure", mode, n, sent)
		}
		warnings := resilience.TakeWarnings(ctx)
		if mode == FailFast && (!errors.Is(err, boom) || len(warnings) != 0) {
			t.Errorf("FailFast: Err = %v, warnings %v; want the failure and no warning", err, warnings)
		}
		if mode == Degrade && (err != nil || len(warnings) != 1 || warnings[0].Endpoint != "ep0") {
			t.Errorf("Degrade: Err = %v, warnings %v; want no error and one warning for ep0", err, warnings)
		}
	}
}

// A source whose breaker is open is rejected when its request is issued,
// as a typed failure naming the endpoint and phase: FailFast ends the scan
// with it, Degrade warns once and answers from the other source.
func TestScanQueueBreakerOpenFailFast(t *testing.T) {
	var opened atomic.Int64
	one := func(ctx context.Context) funcRows {
		opened.Add(1)
		n := 0
		return funcRows{[]string{"x"}, func(dict *rdf.Dict) ([]uint32, error) {
			if n++; n > 1 {
				return nil, io.EOF
			}
			return []uint32{exID(dict, "a")}, nil
		}}
	}
	for _, mode := range []FailureMode{FailFast, Degrade} {
		opened.Store(0)
		e, sq := newFuncEngine(t, mode, one, one)
		e.res = resilience.NewManager(resilience.Config{FailureThreshold: 0.5, Window: 4, MinSamples: 2, Cooldown: time.Hour}, obs.NewRegistry())
		boom := errors.New("boom")
		e.res.Record("ep0", time.Millisecond, boom)
		e.res.Record("ep0", time.Millisecond, boom)
		ctx := resilience.WithWarnings(context.Background())
		s := e.newScanStream(ctx, sq, client.PhaseSubquery, rdf.NewDict(), nil)
		n := 0
		for s.Next() {
			n++
		}
		err := s.Err()
		s.Close()
		warnings := resilience.TakeWarnings(ctx)
		if mode == FailFast {
			ee := client.AsEndpointError(err)
			if ee == nil || ee.Endpoint != "ep0" || ee.Phase != client.PhaseSubquery || !errors.Is(err, resilience.ErrBreakerOpen) {
				t.Errorf("FailFast: Err = %v, want the open breaker at ep0 in phase %s", err, client.PhaseSubquery)
			}
			continue
		}
		if err != nil || n != 1 || len(warnings) != 1 || warnings[0].Endpoint != "ep0" {
			t.Errorf("Degrade: Err = %v, %d rows, warnings %v; want ep1's row and one warning for ep0", err, n, warnings)
		}
		if got := opened.Load(); got != 1 {
			t.Errorf("Degrade: %d responses opened, want ep1's alone", got)
		}
	}
}

// A scan runs one goroutine per source while their responses are open,
// and none once closed. It counts the goroutines running the scan's code,
// so others that come and go in the test binary do not shift the count.
func TestScanQueueOneGoroutinePerSource(t *testing.T) {
	leakcheck.Check(t)
	var holding sync.WaitGroup
	holding.Add(3)
	hold := func(ctx context.Context) funcRows {
		n := 0
		return funcRows{[]string{"x"}, func(dict *rdf.Dict) ([]uint32, error) {
			if n++; n == 1 {
				return []uint32{exID(dict, "a")}, nil
			}
			holding.Done()
			<-ctx.Done()
			return nil, ctx.Err()
		}}
	}
	// waitScanGoroutines polls until want goroutines run the scan's code,
	// letting those of earlier tests finish exiting, and returns the last
	// count.
	waitScanGoroutines := func(want int) int {
		deadline := time.Now().Add(2 * time.Second)
		for {
			got := scanGoroutines()
			if got == want || time.Now().After(deadline) {
				return got
			}
			time.Sleep(time.Millisecond)
		}
	}
	s, _ := newFuncScan(t, context.Background(), FailFast, hold, hold, hold)
	if !s.Next() {
		t.Fatalf("no row: %v", s.Err())
	}
	holding.Wait()
	if got := waitScanGoroutines(3); got != 3 {
		t.Errorf("the scan runs %d goroutines over 3 sources, want 3", got)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if got := waitScanGoroutines(0); got != 0 {
		t.Errorf("%d scan goroutines after Close, want 0", got)
	}
}

// scanGoroutines counts the live goroutines whose stacks are in a scan's
// methods.
func scanGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("core.(*scanStream).")) {
			n++
		}
	}
	return n
}

var benchRows int

// BenchmarkScanStream moves rows of three ids from k sources through one
// scan: the cost of the hand-over from the collectors to the consumer.
func BenchmarkScanStream(b *testing.B) {
	const k, perSource = 4, 2048
	q, err := sparql.Parse(`SELECT * WHERE { ?s ?p ?o }`)
	if err != nil {
		b.Fatal(err)
	}
	sq := &Subquery{Patterns: []sparql.TriplePattern{q.Where.Elements[0].(sparql.TriplePattern)}}
	row := []uint32{1, 2, 3}
	var eps []client.Endpoint
	for i := range k {
		sq.Sources = append(sq.Sources, fmt.Sprintf("ep%d", i))
		eps = append(eps, funcEndpoint{sq.Sources[i], func(context.Context) funcRows {
			n := 0
			return funcRows{[]string{"s", "p", "o"}, func(*rdf.Dict) ([]uint32, error) {
				if n++; n > perSource {
					return nil, io.EOF
				}
				return row, nil
			}}
		}})
	}
	e := MustNew(federation.MustNew(eps...), DefaultOptions())
	dict := rdf.NewDict()
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for range b.N {
		s := e.newScanStream(context.Background(), sq, client.PhaseSubquery, dict, nil)
		for s.Next() {
			benchRows++
		}
		if err := s.Err(); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	rows := float64(b.N * k * perSource)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
}
