package core

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// scanBuf bounds a scan's decoded rows not yet read by its consumer:
// deep enough to decouple decoder and consumer bursts, shallow enough that
// a stalled consumer exerts backpressure on the wire instead of buffering
// the result. It also sets how far a LIMIT-closed scan reads before it
// stops, so a deeper bound reads more bytes.
const scanBuf = 64

// scanStream evaluates one subquery at all its relevant endpoints with one
// streaming request each, delivering rows as they are decoded off each
// response. Rows from different endpoints interleave in arrival order.
//
// Each source is one collector goroutine: it issues the request, decodes
// the response into the queue and exits; the last one to exit ends the
// scan. All of a scan's requests go out at once, with no limit. Rows cross
// from the collectors to the consumer in batches: each collector appends a
// decoded row's ids to one flat slab (queued) under mu, and the consumer,
// once it has used up its own slab, swaps the two. A batch is whatever the
// collectors queued while the consumer was busy; a row is visible as soon
// as it is queued, so the first row waits for no batch. The two slabs take
// turns, so no row is allocated, and Row stays valid until the next Next
// because the collectors never write the consumer's slab. The consumer
// waits only on an empty queue. A collector waits while the queued rows
// and the consumer's unread ones reach scanBuf; the consumer tells the
// collectors how many it has left unread when it takes the queue, and
// again, while one waits, every scanBuf/4 rows it reads. mu is never held
// across I/O or interning.
//
// Failure discipline: in Degrade mode an endpoint that fails — at request
// time, breaker rejection included, or mid-stream — is absorbed with a
// warning and its (remaining) contribution excluded; in FailFast mode the
// first failure cancels the scan and surfaces through Err once the rows
// queued before it are read.
type scanStream struct {
	e     *Engine
	sq    *Subquery
	phase client.Phase
	vars  []string
	dict  *rdf.Dict // the query's term dictionary, fed by the collectors
	text  string    // the request, when rendered ahead (Scans); else run renders sq

	ctx    context.Context
	cancel context.CancelFunc
	parent *obs.Span
	prof   *Profile // SubqueryStats sink (may be nil)

	started bool
	drained bool
	span    *obs.Span

	// The queue, guarded by mu. more wakes the consumer (a row queued, or
	// the last collector done); room wakes the collectors (rows read, or
	// the scan cancelled).
	mu       sync.Mutex
	more     sync.Cond
	room     sync.Cond
	queued   []uint32 // rows of len(vars) ids, back to back
	nqueued  int      // rows in queued; counted apart for zero-variable rows
	held     int      // the consumer's unread rows, as it last told
	stopped  bool     // the scan is closed or its context done: collectors stop
	live     int      // collectors not yet exited
	done     bool     // every collector has exited; doneErr is final
	doneErr  error    // the first failure
	stopWake func() bool
	blocked  atomic.Bool // a collector waits for room

	// The consumer's side, owned by the goroutine calling Next.
	slab   []uint32 // the batch being read
	off    int      // the next row's offset in slab
	left   int      // rows of slab not yet read
	row    []uint32
	rows   int64
	err    error
	closed bool
}

func (e *Engine) newScanStream(ctx context.Context, sq *Subquery, phase client.Phase, dict *rdf.Dict, prof *Profile) *scanStream {
	sctx, cancel := context.WithCancel(ctx)
	s := &scanStream{
		e:      e,
		sq:     sq,
		phase:  phase,
		vars:   sq.Vars(),
		dict:   dict,
		ctx:    sctx,
		cancel: cancel,
		parent: obs.FromContext(ctx),
		prof:   prof,
	}
	s.more.L, s.room.L = &s.mu, &s.mu
	return s
}

// Scans returns the remote leaf over sq as one scan per source, in
// sq.Sources' order, all sending the one request text rendered here. Each
// issues its request when first read and decodes its rows straight to ids
// in dict, aligned to sq.Vars(). The comparators (internal/baseline) fetch
// their units through it: they read the scans concurrently and take the
// rows in federation order.
func (e *Engine) Scans(ctx context.Context, sq *Subquery, dict *rdf.Dict) []op.RowStream {
	text := sq.Query().String()
	scans := make([]op.RowStream, len(sq.Sources))
	for i := range sq.Sources {
		at := *sq
		at.Sources = sq.Sources[i : i+1]
		s := e.newScanStream(ctx, &at, client.PhaseSubquery, dict, nil)
		s.text = text
		scans[i] = s
	}
	return scans
}

func (s *scanStream) Vars() []string { return s.vars }
func (s *scanStream) Row() []uint32  { return s.row }
func (s *scanStream) Err() error     { return s.err }

func (s *scanStream) Next() bool {
	if s.closed || s.err != nil || s.drained {
		return false
	}
	if !s.started {
		s.started = true
		s.run()
	}
	if s.left == 0 && !s.take() {
		return false
	}
	w := len(s.vars)
	s.row = s.slab[s.off : s.off+w : s.off+w]
	s.off += w
	s.left--
	s.rows++
	if s.blocked.Load() && s.held-s.left >= scanBuf/4 {
		s.mu.Lock()
		s.held = s.left
		s.blocked.Store(false)
		s.room.Broadcast()
		s.mu.Unlock()
	}
	return true
}

// take swaps the used-up slab for the queued rows, waiting while none are
// queued. It reports false, with the scan's error in err, once the queue
// is empty and every collector done.
func (s *scanStream) take() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held = 0
	s.blocked.Store(false)
	s.room.Broadcast()
	for s.nqueued == 0 && !s.done {
		s.more.Wait()
	}
	if s.nqueued == 0 {
		s.drained, s.err = true, s.doneErr
		return false
	}
	s.slab, s.queued = s.queued, s.slab[:0]
	s.off, s.left, s.held, s.nqueued = 0, s.nqueued, s.nqueued, 0
	return true
}

// run starts one collector per source; a scan with no sources is done at
// once. Until the collectors are done, cancelling the scan wakes those
// waiting on a full queue.
func (s *scanStream) run() {
	s.span = s.parent.StartChild("scan")
	s.span.SetAttr("patterns", len(s.sq.Patterns))
	s.span.SetAttr("endpoints", len(s.sq.Sources))
	if len(s.sq.Sources) == 0 {
		s.done = true
		return
	}
	text := s.text
	if text == "" {
		text = s.sq.Query().String()
	}
	s.live = len(s.sq.Sources)
	s.stopWake = context.AfterFunc(s.ctx, s.stop)
	for _, name := range s.sq.Sources {
		go s.collect(name, text)
	}
}

// collect is one source's goroutine. Its failure, if the first, is the
// scan's error and cancels the other collectors; the last collector to
// exit ends the scan.
func (s *scanStream) collect(name, text string) {
	err := s.push(name, text)
	s.mu.Lock()
	first := err != nil && s.doneErr == nil
	if first {
		s.doneErr = err
	}
	if s.live--; s.live == 0 {
		s.stopWake()
		s.done = true
		s.more.Signal()
	}
	s.mu.Unlock()
	if first {
		s.cancel()
	}
}

// push issues the request to one endpoint and decodes its response,
// queueing rows aligned to the scan's variables, then closes it. A failure
// mid-stream degrades like a failed request: the rows queued are genuine
// solutions, the endpoint's remaining contribution is lost.
func (s *scanStream) push(name, text string) error {
	rd, err := s.e.streamEndpoint(s.ctx, s.phase, name, text)
	if err != nil {
		if s.e.degrade(s.ctx, s.phase, name, err) {
			return nil
		}
		return err
	}
	defer rd.Close()
	idx := op.VarIndexes(s.vars, rd.Vars())
	ids := sparql.IDsOf(rd)
	row := make([]uint32, len(s.vars))
	for {
		resp, err := ids.ReadIDs(s.dict)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			if client.AsEndpointError(err) == nil {
				err = &client.EndpointError{Endpoint: name, Phase: s.phase, Err: err}
			}
			if s.e.degrade(s.ctx, s.phase, name, err) {
				return nil
			}
			return err
		}
		clear(row)
		for j, id := range resp {
			if k := idx[j]; k >= 0 {
				row[k] = id
			}
		}
		if !s.enqueue(row) {
			return nil
		}
	}
}

// stop makes the collectors drop their rows and return, waking those that
// wait for room.
func (s *scanStream) stop() {
	s.mu.Lock()
	s.stopped = true
	s.room.Broadcast()
	s.mu.Unlock()
}

// enqueue appends one row to the queue, waiting while scanBuf rows are
// unread; false once the scan is cancelled.
func (s *scanStream) enqueue(row []uint32) bool {
	s.mu.Lock()
	for s.nqueued+s.held >= scanBuf && !s.stopped {
		s.blocked.Store(true)
		s.room.Wait()
	}
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	s.queued = append(s.queued, row...)
	s.nqueued++
	if s.nqueued == 1 {
		s.more.Signal()
	}
	s.mu.Unlock()
	return true
}

func (s *scanStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.cancel()
	if s.started && !s.drained {
		// Stop the collectors at their next row rather than once the
		// cancellation reaches them, and wait for the last to exit. A
		// deliberately abandoned scan reports no error.
		s.stop()
		s.mu.Lock()
		for !s.done {
			s.more.Wait()
		}
		s.mu.Unlock()
		s.drained = true
	}
	if s.prof != nil && s.started && len(s.sq.Patterns) > 1 && !s.sq.Optional {
		s.prof.SubqueryStats = append(s.prof.SubqueryStats, SubqueryStat{
			Patterns:  len(s.sq.Patterns),
			Estimated: s.sq.EstCard,
			Actual:    int(s.rows),
		})
	}
	s.span.SetAttr("rows", int(s.rows))
	s.span.End()
	return nil
}
