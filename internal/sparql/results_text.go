package sparql

import (
	"encoding/csv"
	"fmt"
	"strings"

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
// TSV has no closing token, so a reader cannot tell a document cut at a
// line boundary from a complete one; a server that fails after writing
// part of one must abort the response (see DESIGN.md §14).
type tsvStream struct{ chunkBuf }

func newTSVStream(c chunkBuf, vars []string) *tsvStream {
	for i, v := range vars {
		if i > 0 {
			c.buf = append(c.buf, '\t')
		}
		c.buf = append(append(c.buf, '?'), v...)
	}
	c.buf = append(c.buf, '\n')
	return &tsvStream{c}
}

// WriteRow fails on a blank node label or language tag that is empty or
// holds whitespace: it has no N-Triples form and would shift the cells of
// its row.
func (s *tsvStream) WriteRow(row []rdf.Term) error {
	if s.err != nil {
		return s.err
	}
	for i, t := range row {
		if i > 0 {
			s.buf = append(s.buf, '\t')
		}
		if t.IsZero() {
			continue
		}
		if t.Kind == rdf.Blank && !rawToken(t.Value) || t.Lang != "" && !rawToken(t.Lang) {
			s.err = fmt.Errorf("sparql: tsv: term %s has no N-Triples form", t)
			return s.err
		}
		if bare(t) {
			s.buf = append(s.buf, t.Value...)
			continue
		}
		s.buf = rdf.AppendTerm(s.buf, t)
	}
	s.buf = append(s.buf, '\n')
	return s.endRow()
}

func (s *tsvStream) Close() error { return s.closeWith("") }

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
