package sparql

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"lusail/internal/rdf"
)

// RowWriter writes one SPARQL 1.1 results document incrementally, one
// solution per WriteRow, so a serving layer can send rows as an engine
// produces them. Every format's writer appends the document to a buffer
// it hands to the underlying io.Writer on Flush, on Close, or whenever
// about 16 KiB have gathered: nothing reaches the io.Writer before the
// first Flush, so a caller that fails before it can still answer with a
// clean error instead of a cut document.
//
// A writer is not safe for concurrent use. After any error it is poisoned
// and every call returns the first error. Close ends the document and
// flushes it; the writer is unusable afterwards.
type RowWriter interface {
	// WriteRow appends one solution, its terms aligned to the writer's
	// variables; a zero Term is an unbound variable.
	WriteRow(row []rdf.Term) error
	// Flush hands everything buffered to the io.Writer.
	Flush() error
	// Close ends the document and flushes it.
	Close() error
	// Err returns the first error, if any.
	Err() error
}

// TermDict decodes the ids of an id row: id 0 is unbound, and every other
// id names one term.
type TermDict interface {
	Term(id uint32) rdf.Term
}

// IDRowWriter is a RowWriter that also takes rows of ids, so a server
// whose rows are ids decodes a cell only where the format needs its text.
// The writers of both TSV forms implement it: with back-references, only
// an id's first occurrence in the response is decoded and encoded.
type IDRowWriter interface {
	RowWriter
	// WriteIDs appends one solution of ids that dict decodes.
	WriteIDs(row []uint32, dict TermDict) error
}

// NewRowWriter returns the writer of a SELECT result over vars in format f.
func NewRowWriter(w io.Writer, f Format, vars []string) RowWriter {
	c := newChunkBuf(w)
	switch f {
	case FormatXML:
		return newXMLStream(c, vars)
	case FormatCSV:
		return newCSVStream(c, vars)
	case FormatTSV, FormatTSVRefs:
		return newTSVStream(c, vars, f == FormatTSVRefs)
	}
	return newJSONStream(c, vars)
}

// NewBoolWriter returns the writer of an ASK result in format f: the
// answer is whether any row was written, and the whole document goes out
// on Close. TSV has no boolean form; its document is the non-standard
// "?boolean" header and value line the CLI prints, while servers answer
// ASK in JSON (Negotiate).
func NewBoolWriter(w io.Writer, f Format) RowWriter {
	return &boolWriter{chunkBuf: newChunkBuf(w), f: f}
}

// Write streams r to w in format f through NewRowWriter, or NewBoolWriter
// for an ASK result.
func (r *Results) Write(w io.Writer, f Format) error {
	if r.IsBoolean {
		s := NewBoolWriter(w, f)
		if r.Boolean {
			s.WriteRow(nil) // cannot fail on a fresh writer; Close reports any error
		}
		return s.Close()
	}
	s := NewRowWriter(w, f, r.Vars)
	for _, row := range r.Rows {
		if err := s.WriteRow(row); err != nil {
			return err
		}
	}
	return s.Close()
}

// WriteJSON writes the results to w in the SPARQL JSON format.
func (r *Results) WriteJSON(w io.Writer) error { return r.Write(w, FormatJSON) }

// streamChunkBytes is how many bytes a RowWriter gathers before each Write.
const streamChunkBytes = 16 << 10

// chunkBuf is the buffer every RowWriter appends its document to, with
// the Flush and Err they share. Its Write appends, so encoders that write
// to an io.Writer (encoding/csv, xml.EscapeText) can fill it.
type chunkBuf struct {
	w   io.Writer
	buf []byte
	err error
}

// chunks recycles the buffers of closed writers: a server writes one
// document per query, and a fresh chunk per document would outweigh
// everything else a small answer allocates.
var chunks = sync.Pool{New: func() any {
	b := make([]byte, 0, streamChunkBytes+1024)
	return &b
}}

func newChunkBuf(w io.Writer) chunkBuf {
	return chunkBuf{w: w, buf: *chunks.Get().(*[]byte)}
}

func (c *chunkBuf) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}

// Flush hands the buffered bytes to w.
func (c *chunkBuf) Flush() error {
	if c.err != nil || len(c.buf) == 0 {
		return c.err
	}
	_, c.err = c.w.Write(c.buf)
	c.buf = c.buf[:0]
	return c.err
}

// Err returns the first error, if any.
func (c *chunkBuf) Err() error { return c.err }

// endRow flushes once a chunk has gathered.
func (c *chunkBuf) endRow() error {
	if len(c.buf) >= streamChunkBytes {
		return c.Flush()
	}
	return c.err
}

// closeWith appends the document's tail, flushes, and recycles the
// buffer unless a huge row grew it.
func (c *chunkBuf) closeWith(tail string) error {
	if c.err != nil {
		return c.err
	}
	c.buf = append(c.buf, tail...)
	err := c.Flush()
	if b := c.buf[:0]; cap(b) <= 4*streamChunkBytes {
		chunks.Put(&b)
	}
	c.buf = nil
	return err
}

// jsonStream writes a SPARQL 1.1 JSON results document: the head, then
// each solution as its own bindings object, its keys in sorted order and
// unbound variables omitted.
type jsonStream struct {
	chunkBuf
	vars []string
	rows int
}

func newJSONStream(c chunkBuf, vars []string) *jsonStream {
	s := &jsonStream{chunkBuf: c, vars: vars}
	head, err := json.Marshal(jsonHead{Vars: vars})
	s.buf = append(append(append(s.buf, `{"head":`...), head...), `,"results":{"bindings":[`...)
	s.err = err
	return s
}

func (s *jsonStream) WriteRow(row []rdf.Term) error {
	if s.err != nil {
		return s.err
	}
	m := make(map[string]jsonTerm, len(row))
	for i, t := range row {
		if i < len(s.vars) && !t.IsZero() {
			m[s.vars[i]] = termToJSON(t)
		}
	}
	data, err := json.Marshal(m)
	if err != nil {
		s.err = err
		return err
	}
	if s.rows > 0 {
		s.buf = append(s.buf, ',')
	}
	s.buf = append(s.buf, data...)
	s.rows++
	return s.endRow()
}

func (s *jsonStream) Close() error { return s.closeWith("]}}") }

// boolWriter is NewBoolWriter's writer: one per format, chosen on Close.
type boolWriter struct {
	chunkBuf
	f   Format
	yes bool
}

func (b *boolWriter) WriteRow([]rdf.Term) error {
	b.yes = true
	return b.err
}

func (b *boolWriter) Close() error {
	v := strconv.FormatBool(b.yes)
	switch b.f {
	case FormatXML:
		return b.closeWith(xmlOpen + `<head></head><boolean>` + v + `</boolean></sparql>`)
	case FormatCSV:
		return b.closeWith("boolean\n" + v + "\n")
	case FormatTSV, FormatTSVRefs:
		return b.closeWith("?boolean\n" + v + "\n")
	}
	return b.closeWith(`{"head":{},"boolean":` + v + `}`)
}
