package sparql

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"lusail/internal/rdf"
)

// WriteCSV writes the results in the SPARQL 1.1 Query Results CSV format:
// a header row of variable names, then one row per solution with plain
// lexical values (IRIs bare, literals unquoted by the csv writer rules).
// ASK results are written as a single boolean row.
func (r *Results) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if r.IsBoolean {
		if err := cw.Write([]string{"boolean"}); err != nil {
			return err
		}
		if err := cw.Write([]string{fmt.Sprintf("%v", r.Boolean)}); err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	}
	if err := cw.Write(r.Vars); err != nil {
		return err
	}
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, t := range row {
			cells[i] = csvValue(t)
		}
		if err := cw.Write(cells); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

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

// tsvChunkBytes is how many bytes a TSVStream gathers before each Write.
const tsvChunkBytes = 16 << 10

// WriteTSV writes the results in the SPARQL 1.1 Query Results TSV format
// through a TSVStream.
//
// The TSV format has no boolean form; an ASK result is written as the
// non-standard "?boolean" header and value line for the CLI, while servers
// answer ASK in JSON (Negotiate).
func (r *Results) WriteTSV(w io.Writer) error {
	if r.IsBoolean {
		_, err := fmt.Fprintf(w, "?boolean\n%v\n", r.Boolean)
		return err
	}
	s := NewTSVStream(w, r.Vars)
	for _, row := range r.Rows {
		if err := s.WriteRow(row); err != nil {
			return err
		}
	}
	return s.Close()
}

// TSVStream writes a SPARQL 1.1 TSV results document incrementally: a
// header of ?-prefixed variables, then one line per solution of N-Triples
// terms (rdf.AppendTerm) separated by tabs, an unbound variable being an
// empty field; integers and booleans Turtle's shorthand spells exactly
// are written bare (12, true). Lines are appended into one reused buffer
// handed to w in chunks of about 16 KiB, or sooner on Flush.
//
// TSV has no closing token, so a reader cannot tell a document cut at a
// line boundary from a complete one; a server that fails after writing
// part of one must abort the response (see DESIGN.md §14).
//
// The stream is not safe for concurrent use. After any error the stream
// is poisoned and further calls return the first error.
type TSVStream struct {
	w   io.Writer
	buf []byte
	err error
}

// NewTSVStream buffers the header line for the given variables and
// returns the stream; nothing reaches w before the first Flush, Close or
// full chunk.
func NewTSVStream(w io.Writer, vars []string) *TSVStream {
	buf := make([]byte, 0, tsvChunkBytes+1024)
	for i, v := range vars {
		if i > 0 {
			buf = append(buf, '\t')
		}
		buf = append(append(buf, '?'), v...)
	}
	return &TSVStream{w: w, buf: append(buf, '\n')}
}

// WriteRow appends one solution, its terms aligned to the stream's
// variables. A blank node label or language tag that is empty or holds
// whitespace has no N-Triples form and fails the write, since it would
// shift the cells of its row.
func (s *TSVStream) WriteRow(row []rdf.Term) error {
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
	if len(s.buf) >= tsvChunkBytes {
		return s.Flush()
	}
	return nil
}

// Flush hands the buffered lines to w.
func (s *TSVStream) Flush() error {
	if s.err != nil || len(s.buf) == 0 {
		return s.err
	}
	_, s.err = s.w.Write(s.buf)
	s.buf = s.buf[:0]
	return s.err
}

// Close flushes the last lines; the document ends with them.
func (s *TSVStream) Close() error { return s.Flush() }

// Err returns the first error, if any.
func (s *TSVStream) Err() error { return s.err }

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
