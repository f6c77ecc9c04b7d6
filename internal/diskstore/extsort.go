package diskstore

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// extSorter sorts an arbitrarily large stream of byte-string records in
// bounded memory: records accumulate in a buffer up to a byte budget, each
// full buffer is sorted, deduplicated, and spilled to a run file, and
// merge() streams the global order with a k-way heap merge over the runs.
// Records compare with bytes.Compare, so fixed-width big-endian encodings
// sort numerically.
type extSorter struct {
	dir    string
	prefix string
	budget int64

	buf      [][]byte
	arena    []byte // backing storage for buf records, reused across spills
	bufBytes int64
	runs     []*os.File
	seq      int
}

func newExtSorter(dir, prefix string, budget int64) *extSorter {
	if budget < 1<<20 {
		budget = 1 << 20
	}
	return &extSorter{dir: dir, prefix: prefix, budget: budget}
}

// add buffers one record (copied), spilling a sorted run when over budget.
func (s *extSorter) add(rec []byte) error {
	n := len(s.arena)
	s.arena = append(s.arena, rec...)
	s.buf = append(s.buf, s.arena[n:len(s.arena):len(s.arena)])
	s.bufBytes += int64(len(rec)) + 24
	if s.bufBytes >= s.budget {
		return s.spill()
	}
	return nil
}

func (s *extSorter) sortBuf() {
	sort.Slice(s.buf, func(i, j int) bool { return bytes.Compare(s.buf[i], s.buf[j]) < 0 })
	// Dedup within the run: shrinks spills and the merge's work.
	out := s.buf[:0]
	for i, r := range s.buf {
		if i == 0 || !bytes.Equal(r, s.buf[i-1]) {
			out = append(out, r)
		}
	}
	s.buf = out
}

// spill writes the sorted buffer as one run file (uvarint length framing).
func (s *extSorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	s.sortBuf()
	f, err := os.CreateTemp(s.dir, s.prefix+"-run-*")
	if err != nil {
		return fmt.Errorf("diskstore: spilling sort run: %w", err)
	}
	// Unlink immediately: the open handle keeps it alive, and a crash
	// leaves nothing to clean up.
	os.Remove(f.Name())
	w := bufio.NewWriterSize(f, 1<<20)
	var lenBuf [binary.MaxVarintLen64]byte
	for _, r := range s.buf {
		n := binary.PutUvarint(lenBuf[:], uint64(len(r)))
		if _, err := w.Write(lenBuf[:n]); err != nil {
			f.Close()
			return err
		}
		if _, err := w.Write(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	s.runs = append(s.runs, f)
	s.seq++
	s.buf = s.buf[:0]
	s.arena = s.arena[:0]
	s.bufBytes = 0
	return nil
}

// runReader streams records back from one spilled run.
type runReader struct {
	r   *bufio.Reader
	cur []byte
	eof bool
}

func (rr *runReader) next() error {
	n, err := binary.ReadUvarint(rr.r)
	if errors.Is(err, io.EOF) {
		rr.eof = true
		rr.cur = nil
		return nil
	}
	if err != nil {
		return fmt.Errorf("diskstore: reading sort run: %w", err)
	}
	if uint64(cap(rr.cur)) < n {
		rr.cur = make([]byte, n)
	}
	rr.cur = rr.cur[:n]
	if _, err := io.ReadFull(rr.r, rr.cur); err != nil {
		return fmt.Errorf("diskstore: reading sort run: %w", err)
	}
	return nil
}

// mergeHeap orders run readers by their current record.
type mergeHeap []*runReader

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return bytes.Compare(h[i].cur, h[j].cur) < 0 }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(*runReader)) }
func (h *mergeHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// merge streams every distinct record in sorted order, then releases all
// run files. The sorter must not be reused afterwards.
func (s *extSorter) merge(emit func(rec []byte) error) error {
	it, err := s.iter()
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		rec, err := it.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
}

// iter seals the sorter into an iterator over every distinct record in
// sorted order: the buffer itself when nothing spilled, else a k-way heap
// merge over the runs, the buffer spilled as the last one. The iterator
// owns the run files; on error they are already released.
func (s *extSorter) iter() (*SortIter, error) {
	if len(s.runs) == 0 {
		s.sortBuf()
		return &SortIter{s: s, mem: s.buf}, nil
	}
	if err := s.spill(); err != nil {
		s.close()
		return nil, err
	}
	h := make(mergeHeap, 0, len(s.runs))
	for _, f := range s.runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			s.close()
			return nil, err
		}
		rr := &runReader{r: bufio.NewReaderSize(f, 1<<20)}
		if err := rr.next(); err != nil {
			s.close()
			return nil, err
		}
		if !rr.eof {
			h = append(h, rr)
		}
	}
	heap.Init(&h)
	return &SortIter{s: s, h: h, disk: true}, nil
}

// close releases the run files (already unlinked; closing frees the disk).
func (s *extSorter) close() {
	for _, f := range s.runs {
		f.Close()
	}
	s.runs = nil
	s.buf = nil
	s.arena = nil
	s.bufBytes = 0
}
