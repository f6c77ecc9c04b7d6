package diskstore

import (
	"bytes"
	"container/heap"
	"io"
)

// Sorter is the exported, pull-based face of the external sorter: an
// arbitrarily large stream of byte-string records is added under a byte
// budget, spilled to sorted run files when the budget is exceeded, and
// read back in globally sorted, deduplicated order through an iterator
// instead of a callback. It exists for consumers that need to interleave
// the sorted stream with other work — the engine's spill-to-disk hash
// join merges two sorted sides record by record; the loader's
// callback-style merge() is a loop over the same iterator. Records
// compare with bytes.Compare, so a length-prefixed join key groups equal
// keys contiguously.
//
// Run files are created in dir (the process temp dir when empty) and
// unlinked immediately, so nothing survives a crash.
type Sorter struct {
	s      *extSorter
	sealed bool
}

// NewSorter returns a sorter spilling to dir with the given in-memory
// byte budget (minimum 1 MiB, enforced).
func NewSorter(dir, prefix string, budgetBytes int64) *Sorter {
	return &Sorter{s: newExtSorter(dir, prefix, budgetBytes)}
}

// Add buffers one record (copied), spilling a sorted run when over
// budget. Add must not be called after Iter.
func (s *Sorter) Add(rec []byte) error { return s.s.add(rec) }

// Iter seals the sorter and returns an iterator over every distinct
// record in sorted order. The sorter must not be reused; Close the
// iterator to release the run files.
func (s *Sorter) Iter() (*SortIter, error) {
	s.sealed = true
	return s.s.iter()
}

// Close releases the sorter's buffers and run files. Needed only when the
// sorter is abandoned before Iter; afterwards the iterator owns them.
func (s *Sorter) Close() {
	if !s.sealed {
		s.s.close()
		s.sealed = true
	}
}

// SortIter streams the sorted, deduplicated records. Next returns io.EOF
// after the last record; the returned slice is only valid until the next
// call. Close releases the run files and is idempotent.
type SortIter struct {
	s *extSorter

	// In-memory path.
	mem [][]byte
	i   int

	// Disk path.
	disk     bool
	h        mergeHeap
	prev     []byte
	havePrev bool

	closed bool
}

// Next returns the next distinct record in sorted order, or io.EOF.
func (it *SortIter) Next() ([]byte, error) {
	if it.closed {
		return nil, io.EOF
	}
	if !it.disk {
		if it.i >= len(it.mem) {
			return nil, io.EOF
		}
		rec := it.mem[it.i]
		it.i++
		return rec, nil
	}
	for it.h.Len() > 0 {
		rr := it.h[0]
		cur := rr.cur
		emit := !it.havePrev || !bytes.Equal(cur, it.prev)
		if emit {
			it.prev = append(it.prev[:0], cur...)
			it.havePrev = true
		}
		if err := rr.next(); err != nil {
			return nil, err
		}
		if rr.eof {
			heap.Pop(&it.h)
		} else {
			heap.Fix(&it.h, 0)
		}
		if emit {
			return it.prev, nil
		}
	}
	return nil, io.EOF
}

// Close releases the run files and buffers.
func (it *SortIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.mem = nil
	it.h = nil
	it.s.close()
}
