// Package streamclose is a lusail-vet testdata package: every marked line
// must produce exactly one streamclose diagnostic. The stream types are
// local — detection is by method shape, not import path — so the package
// mirrors how op.RowStream, *core.Rows, and sparql.RowReader present to
// the analyzer without depending on them.
package streamclose

import "errors"

var errBoom = errors.New("boom")

// rowStream has the cursor shape: Next() bool, Err() error, Close() error.
type rowStream struct{ done bool }

func (s *rowStream) Next() bool   { return !s.done }
func (s *rowStream) Err() error   { return nil }
func (s *rowStream) Row() []int   { return nil }
func (s *rowStream) Close() error { s.done = true; return nil }

// rowReader has the decoder shape: Vars(), Read() (T, error), Close() error.
type rowReader struct{}

func (r *rowReader) Vars() []string       { return nil }
func (r *rowReader) Read() ([]int, error) { return nil, nil }
func (r *rowReader) Close() error         { return nil }

func open() (*rowStream, error)       { return &rowStream{}, nil }
func openReader() (*rowReader, error) { return &rowReader{}, nil }

// neverClosed drains the stream but never releases it.
func neverClosed() error {
	s, err := open() // want: never closed
	if err != nil {
		return err
	}
	for s.Next() {
	}
	return s.Err()
}

// discarded throws the stream away at the assignment.
func discarded() {
	_, _ = open() // want: discarded
}

// earlyReturn closes on the happy path but leaks on the guard.
func earlyReturn(fail bool) error {
	s, err := open() // want: may leak on the return
	if err != nil {
		return err
	}
	if fail {
		return errBoom
	}
	s.Close()
	return nil
}

// readerLeak exercises the reader shape.
func readerLeak() error {
	rd, err := openReader() // want: never closed
	if err != nil {
		return err
	}
	_, rerr := rd.Read()
	return rerr
}

// deferredOK is the clean shape: the error-guarded return is exempt, the
// deferred Close covers everything after it.
func deferredOK() error {
	s, err := open()
	if err != nil {
		return err
	}
	defer s.Close()
	for s.Next() {
	}
	return s.Err()
}

// explicitOK closes before every unguarded return.
func explicitOK() error {
	s, err := open()
	if err != nil {
		return err
	}
	for s.Next() {
	}
	rerr := s.Err()
	if cerr := s.Close(); rerr == nil {
		rerr = cerr
	}
	return rerr
}

// handoffOK passes the stream to a holder; closing becomes its job.
func handoffOK() (*rowStream, error) {
	s, err := open()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// closureOK hands the stream to a function literal.
func closureOK() func() {
	s, _ := open()
	return func() { s.Close() }
}
