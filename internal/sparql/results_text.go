package sparql

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"lusail/internal/rdf"
)

// csvStream writes the SPARQL 1.1 Query Results CSV format: a header row
// of variable names, then one row per solution with plain lexical values
// (IRIs bare, literals unquoted by the csv writer rules).
type csvStream struct {
	chunkBuf
	cw    *csv.Writer
	cells []string
}

func newCSVStream(c chunkBuf, vars []string) *csvStream {
	s := &csvStream{chunkBuf: c, cells: make([]string, len(vars))}
	s.cw = csv.NewWriter(&s.chunkBuf)
	s.writeRecord(vars)
	return s
}

// writeRecord writes one CSV record into the buffer.
func (s *csvStream) writeRecord(cells []string) {
	if s.err == nil {
		s.err = s.cw.Write(cells)
	}
	if s.err == nil {
		s.cw.Flush()
		s.err = s.cw.Error()
	}
}

func (s *csvStream) WriteRow(row []rdf.Term) error {
	s.cells = s.cells[:0]
	for _, t := range row {
		s.cells = append(s.cells, csvValue(t))
	}
	s.writeRecord(s.cells)
	return s.endRow()
}

func (s *csvStream) Close() error { return s.closeWith("") }

// csvValue renders a term per the CSV results spec: the bare value, with
// blank nodes keeping their _: prefix.
func csvValue(t rdf.Term) string {
	if t.IsZero() {
		return ""
	}
	if t.Kind == rdf.Blank {
		return "_:" + t.Value
	}
	return t.Value
}

// tsvStream writes the SPARQL 1.1 TSV results format: a header of
// ?-prefixed variables, then one line per solution of N-Triples terms
// (rdf.AppendTerm) separated by tabs, an unbound variable being an empty
// field; integers and booleans Turtle's shorthand spells exactly are
// written bare (12, true).
//
// With back-references (FormatTSVRefs) every cell written as text is also
// the next entry of the response's table, numbered from 0, and a cell
// that repeats an entry is written #k instead, k its index, whenever that
// is shorter than the text. No term starts with #, so the two never
// collide, and the response is never longer than its plain TSV.
//
// TSV has no closing token, so a reader cannot tell a document cut at a
// line boundary from a complete one; a server that fails after writing
// part of one must abort the response (see DESIGN.md §14).
type tsvStream struct {
	chunkBuf
	refs *tsvTable // nil: plain TSV
}

func newTSVStream(c chunkBuf, vars []string, refs bool) *tsvStream {
	for i, v := range vars {
		if i > 0 {
			c.buf = append(c.buf, '\t')
		}
		c.buf = append(append(c.buf, '?'), v...)
	}
	c.buf = append(c.buf, '\n')
	s := &tsvStream{chunkBuf: c}
	if refs {
		s.refs = tsvTables.Get().(*tsvTable)
	}
	return s
}

// tsvTable is the writer's view of a response's table: how many entries
// it has, and the first entry of each term (WriteRow) or id (WriteIDs).
// The maps outlive their response: an entry counts only in the response
// of its generation, so a recycled table is reused without clearing its
// maps, which would cost their capacity on every small response.
type tsvTable struct {
	n, gen uint32
	terms  map[rdf.Term]tsvEntry
	ids    map[uint32]tsvEntry
}

// tsvEntry is one table entry: its index, the length of its text, and the
// generation of the response it belongs to.
type tsvEntry struct{ at, size, gen uint32 }

// maxPooledEntries bounds a recycled table: one whose response wrote more
// entries is dropped, and maps that gathered more across responses are
// cleared, a cost their responses share.
const maxPooledEntries = 1 << 15

// tsvTables recycles the tables of closed writers, maps and all, as
// chunks recycles their buffers.
var tsvTables = sync.Pool{New: func() any {
	return &tsvTable{terms: map[rdf.Term]tsvEntry{}, ids: map[uint32]tsvEntry{}}
}}

// ref appends e as a back-reference, #k, when that is shorter than its
// text.
func (e tsvEntry) ref(buf []byte) ([]byte, bool) {
	width := uint32(2) // # and the first digit
	for k := e.at; k >= 10; k /= 10 {
		width++
	}
	if width >= e.size {
		return buf, false
	}
	return strconv.AppendUint(append(buf, '#'), uint64(e.at), 10), true
}

// WriteRow fails on a blank node label or language tag that is empty or
// holds whitespace: it has no N-Triples form and would shift the cells of
// its row.
func (s *tsvStream) WriteRow(row []rdf.Term) error {
	var m map[rdf.Term]tsvEntry
	if s.refs != nil {
		m = s.refs.terms
	}
	return writeTSVRow(s, row, m, func(t rdf.Term) rdf.Term { return t })
}

// WriteIDs implements IDRowWriter. With back-references, an id already
// in the table costs a map lookup: only its first occurrence is decoded,
// and a repeat whose text is shorter than its reference.
func (s *tsvStream) WriteIDs(row []uint32, dict TermDict) error {
	var m map[uint32]tsvEntry
	if s.refs != nil {
		m = s.refs.ids
	}
	return writeTSVRow(s, row, m, dict.Term)
}

// writeTSVRow appends one solution whose cells are keys (terms or ids,
// the zero key unbound) that term decodes, keeping the table in m (nil
// for plain TSV).
func writeTSVRow[K comparable](s *tsvStream, row []K, m map[K]tsvEntry, term func(K) rdf.Term) error {
	if s.err != nil {
		return s.err
	}
	var unbound K
	for i, k := range row {
		if i > 0 {
			s.buf = append(s.buf, '\t')
		}
		if k == unbound {
			continue
		}
		e, seen := m[k]
		if seen = seen && e.gen == s.refs.gen; seen {
			var ok bool
			if s.buf, ok = e.ref(s.buf); ok {
				continue
			}
		}
		size, err := s.text(term(k))
		if err != nil {
			return err
		}
		if m != nil {
			if !seen {
				m[k] = tsvEntry{s.refs.n, size, s.refs.gen}
			}
			s.refs.n++
		}
	}
	s.buf = append(s.buf, '\n')
	return s.endRow()
}

// text appends t's N-Triples text, or its bare shorthand, and returns
// its length.
func (s *tsvStream) text(t rdf.Term) (uint32, error) {
	if t.Kind == rdf.Blank && !rawToken(t.Value) || t.Lang != "" && !rawToken(t.Lang) {
		s.err = fmt.Errorf("sparql: tsv: term %s has no N-Triples form", t)
		return 0, s.err
	}
	n := len(s.buf)
	if bare(t) {
		s.buf = append(s.buf, t.Value...)
	} else {
		s.buf = rdf.AppendTerm(s.buf, t)
	}
	return uint32(len(s.buf) - n), nil
}

func (s *tsvStream) Close() error {
	err := s.closeWith("")
	if t := s.refs; t != nil && t.n <= maxPooledEntries {
		// Clearing also keeps a wrapped-around generation from reviving
		// stale entries.
		if t.n, t.gen = 0, t.gen+1; t.gen == 0 || len(t.terms)+len(t.ids) > maxPooledEntries {
			clear(t.terms)
			clear(t.ids)
		}
		tsvTables.Put(t)
	}
	s.refs = nil
	return err
}

// bare reports whether t is an xsd:integer or xsd:boolean literal that
// Turtle's shorthand writes as its lexical form alone: COUNT and EXISTS
// cells, "12" instead of "12"^^<http://www.w3.org/2001/XMLSchema#integer>.
func bare(t rdf.Term) bool {
	if t.Datatype != rdf.XSDInteger && t.Datatype != rdf.XSDBoolean {
		return false
	}
	u, err := rdf.ParseTerm(t.Value)
	return err == nil && u == t
}

// rawToken reports whether s can be written where N-Triples allows no
// escapes (blank node labels, language tags): non-empty, no whitespace.
func rawToken(s string) bool {
	return s != "" && !strings.ContainsAny(s, " \t\r\n")
}
