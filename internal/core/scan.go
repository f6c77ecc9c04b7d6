package core

import (
	"context"
	"sync"

	"lusail/internal/client"
	"lusail/internal/obs"
	"lusail/internal/op"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// scanBuf is the bounded depth of a scan's row channel: deep enough to
// decouple decoder and consumer bursts, shallow enough that a stalled
// consumer exerts backpressure on the wire instead of buffering the result.
const scanBuf = 64

// scanStream evaluates one subquery at all its relevant endpoints with one
// streaming request each, delivering rows as they are decoded off each
// response. Rows from different endpoints interleave in arrival order.
//
// Pool discipline: a pool slot is held only while the request is issued
// (connection + response head). Decoding runs in a per-endpoint pusher
// goroutine outside any slot, so a slow consumer of this scan can never
// starve other operators — bound-join dispatch, sibling scans — of slots,
// and a PoolSize=1 engine cannot deadlock.
//
// Failure discipline: in Degrade mode an endpoint that fails — at request
// time or mid-stream — is absorbed with a warning and its (remaining)
// contribution excluded; in FailFast mode the first failure cancels the
// scan and surfaces through Err.
type scanStream struct {
	e     *Engine
	sq    *Subquery
	phase client.Phase
	vars  []string
	dict  *rdf.Dict // the query's term dictionary, fed by the pushers

	ctx    context.Context
	cancel context.CancelFunc
	parent *obs.Span
	prof   *Profile // SubqueryStats sink (may be nil)

	started bool
	drained bool
	out     chan []uint32
	errc    chan error
	span    *obs.Span

	row    []uint32
	rows   int64
	err    error
	closed bool
}

func (e *Engine) newScanStream(ctx context.Context, sq *Subquery, phase client.Phase, dict *rdf.Dict, prof *Profile) *scanStream {
	sctx, cancel := context.WithCancel(ctx)
	return &scanStream{
		e:      e,
		sq:     sq,
		phase:  phase,
		vars:   sq.Vars(),
		dict:   dict,
		ctx:    sctx,
		cancel: cancel,
		parent: obs.FromContext(ctx),
		prof:   prof,
		out:    make(chan []uint32, scanBuf),
		errc:   make(chan error, 1),
	}
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
	row, ok := <-s.out
	if !ok {
		s.drained = true
		if err := <-s.errc; err != nil {
			s.err = err
		}
		return false
	}
	s.row = row
	s.rows++
	return true
}

func (s *scanStream) run() {
	s.span = s.parent.StartChild("scan")
	s.span.SetAttr("patterns", len(s.sq.Patterns))
	s.span.SetAttr("endpoints", len(s.sq.Sources))
	go s.drive()
}

// drive issues one streaming request per endpoint through the pool, hands
// each response to a pusher goroutine, waits for all pushers, and delivers
// the final error before closing the row channel.
func (s *scanStream) drive() {
	var wg sync.WaitGroup
	var first sync.Once
	var pushErr error
	e := s.e
	queryText := s.sq.Query(nil).String()
	err := e.pool.ForEachGated(s.ctx, s.sq.Sources, e.gate(),
		e.onRejectDegrade(s.ctx, s.phase, s.sq.Sources), func(i int) error {
			name := s.sq.Sources[i]
			rd, rerr := e.streamEndpoint(s.ctx, s.phase, name, queryText)
			if rerr != nil {
				if e.degrade(s.ctx, s.phase, name, rerr) {
					return nil
				}
				return rerr
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if perr := s.push(rd, name); perr != nil {
					first.Do(func() { pushErr = perr })
					s.cancel() // fail fast: stop sibling pushers
				}
			}()
			return nil
		})
	wg.Wait()
	if err == nil {
		err = pushErr
	}
	s.errc <- err
	close(s.out)
}

// push decodes one endpoint's response outside the pool, forwarding rows
// aligned to the scan's variables.
func (s *scanStream) push(rd sparql.RowReader, name string) error {
	_, err := s.e.readRows(s.ctx, s.phase, name, rd, s.dict, s.vars, func(row []uint32) bool {
		select {
		case s.out <- op.CopyRow(row):
			return true
		case <-s.ctx.Done():
			return false
		}
	})
	return err
}

func (s *scanStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.cancel()
	if s.started && !s.drained {
		// Unblock pushers stuck on a full channel, then reap the driver's
		// terminal send. A deliberately abandoned scan reports no error.
		for range s.out {
		}
		s.drained = true
		<-s.errc
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
