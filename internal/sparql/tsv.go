package sparql

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"lusail/internal/rdf"
)

// tsvReadBytes sizes the TSV decoder's read buffer. A larger one costs
// more per response than the fewer reads save: most responses are small.
const tsvReadBytes = 4 << 10

// maxTSVLineBytes caps one TSV line — one solution — that does not fit the
// read buffer and must be accumulated, the same per-line bound
// rdf.ParseNTriples applies. The response as a whole is bounded by the
// reader the decoder is handed (client.HTTPOptions.MaxResponseBytes).
const maxTSVLineBytes = 16 << 20

// TSVDecoder incrementally decodes a SPARQL 1.1 TSV results document: a
// header line of ?- or $-prefixed variables, then one line per solution of
// tab-separated terms. Each cell is parsed by rdf.ParseTerm (N-Triples
// terms plus Turtle's shorthand numbers and booleans); an empty cell is an
// unbound variable. Lines may end in LF or CRLF. With an empty header every
// line is a solution binding no variables.
//
// TSV has no closing token, so the decoder tells a complete document from a
// cut one only by where the bytes stop: a body that ends inside a line
// fails with io.ErrUnexpectedEOF, while one cut exactly at a line boundary
// reads as complete. Callers must therefore hand it a reader whose own
// framing reports truncation (an HTTP body with a Content-Length or chunked
// encoding does). A row whose field count differs from the header's is an
// error.
//
// A decoder made by NewTSVRefsDecoder reads TSV with back-references
// (FormatTSVRefs): each text cell is also the next entry of the
// response's table, and a cell #k is entry k again, k decimal and below
// the number of text cells before it. A reference out of range or
// malformed fails the stream like any bad cell. Such a response must be
// read wholly through Read or wholly through ReadIDs, whose tables hold
// terms and ids respectively.
type TSVDecoder struct {
	rc   io.ReadCloser
	br   *bufio.Reader
	long []byte // a line longer than br's buffer, accumulated

	vars  []string
	row   []rdf.Term
	ids   []uint32  // ReadIDs' row
	cells [][]byte  // the current line's cells
	rows  int       // solutions decoded, for error messages
	table *refTable // the back-reference table; nil for plain TSV

	done   bool
	closed bool
	err    error
}

// refTable is the decoder's back-reference table: the terms (Read) or ids
// (ReadIDs) of the response's text cells so far, and the current line's
// text cells ReadIDs interns. It is recycled with the decoder, so a
// response does not pay for a fresh table.
type refTable struct {
	terms []rdf.Term
	ids   []uint32
	text  [][]byte
}

// refTables recycles the tables of closed decoders.
var refTables = sync.Pool{New: func() any { return new(refTable) }}

// NewTSVDecoder reads the header line from rc and positions the decoder at
// the first solution. The decoder owns rc and closes it on Close.
func NewTSVDecoder(rc io.ReadCloser) (*TSVDecoder, error) {
	d := &TSVDecoder{rc: rc, br: bufio.NewReaderSize(rc, tsvReadBytes)}
	if err := d.readHeader(); err != nil {
		rc.Close()
		return nil, fmt.Errorf("sparql: tsv header: %w", err)
	}
	return d, nil
}

// NewTSVRefsDecoder is NewTSVDecoder for TSV with back-references.
func NewTSVRefsDecoder(rc io.ReadCloser) (*TSVDecoder, error) {
	d, err := NewTSVDecoder(rc)
	if err == nil {
		d.table = refTables.Get().(*refTable)
	}
	return d, err
}

func (d *TSVDecoder) readHeader() error {
	b, err := d.readLine()
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF // even an empty result has a header line
	}
	if err != nil {
		return err
	}
	if line := string(b); line != "" {
		for _, field := range strings.Split(line, "\t") {
			if len(field) < 2 || (field[0] != '?' && field[0] != '$') || strings.ContainsAny(field, " \r\n") {
				return fmt.Errorf("malformed variable %q", field)
			}
			d.vars = append(d.vars, field[1:])
		}
	}
	d.row = make([]rdf.Term, len(d.vars))
	d.ids = make([]uint32, len(d.vars))
	d.cells = make([][]byte, len(d.vars))
	return nil
}

// readLine returns the next line without its LF or CRLF. The bytes are
// only valid until the next read. It returns io.EOF only when the input
// ends exactly at a line boundary, and io.ErrUnexpectedEOF when it ends
// inside a line.
func (d *TSVDecoder) readLine() ([]byte, error) {
	frag, err := d.br.ReadSlice('\n')
	if err == nil {
		return trimEOL(frag), nil
	}
	d.long = append(d.long[:0], frag...)
	for errors.Is(err, bufio.ErrBufferFull) {
		frag, err = d.br.ReadSlice('\n')
		if len(d.long)+len(frag) > maxTSVLineBytes {
			return nil, fmt.Errorf("line exceeds %d bytes", maxTSVLineBytes)
		}
		d.long = append(d.long, frag...)
	}
	switch {
	case err == nil:
		return trimEOL(d.long), nil
	case errors.Is(err, io.EOF) && len(d.long) > 0:
		return nil, io.ErrUnexpectedEOF
	}
	return nil, err
}

func trimEOL(line []byte) []byte {
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// Vars implements RowReader.
func (d *TSVDecoder) Vars() []string { return d.vars }

// Read implements RowReader. The line is converted to one string the
// row's terms are sliced from.
func (d *TSVDecoder) Read() ([]rdf.Term, error) {
	err := d.next(func(line []byte) error {
		t := d.table
		if t != nil && len(t.ids) > 0 {
			return errMixedReads
		}
		s, off := string(line), 0
		for i, c := range d.cells {
			cell := s[off : off+len(c)]
			switch off += len(c) + 1; {
			case cell == "":
				d.row[i] = rdf.Term{}
			case t != nil && cell[0] == '#':
				k, err := tableIndex(cell, len(t.terms))
				if err != nil {
					return fmt.Errorf("?%s: %w", d.vars[i], err)
				}
				d.row[i] = t.terms[k]
			default:
				term, err := rdf.ParseTerm(cell)
				if err != nil {
					return fmt.Errorf("?%s: %w", d.vars[i], err)
				}
				d.row[i] = term
				if t != nil {
					t.terms = append(t.terms, term)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d.row, nil
}

// ReadIDs implements IDReader: the cells are interned into dict straight
// from the read buffer, so a row of terms dict holds allocates nothing.
// With back-references only the text cells are interned; a reference
// costs an index into the table of ids.
func (d *TSVDecoder) ReadIDs(dict *rdf.Dict) ([]uint32, error) {
	err := d.next(func([]byte) error {
		if d.table == nil {
			if i, err := dict.InternText(d.cells, d.ids); err != nil {
				return fmt.Errorf("?%s: %w", d.vars[i], err)
			}
			return nil
		}
		return d.internRefs(dict)
	})
	if err != nil {
		return nil, err
	}
	return d.ids, nil
}

// internRefs is ReadIDs on a line with back-references. A reference may
// name a text cell earlier in the same line, so the line's text cells are
// interned, straight into the table, before references are resolved.
func (d *TSVDecoder) internRefs(dict *rdf.Dict) error {
	t := d.table
	if len(t.terms) > 0 {
		return errMixedReads
	}
	first := len(t.ids)
	t.text = t.text[:0]
	// A bad reference stops the line, but a bad text cell before it is
	// the error Read reports, so the text cells before it are interned
	// first.
	var refErr error
cells:
	for i, c := range d.cells {
		switch {
		case len(c) == 0:
			d.ids[i] = 0
		case c[0] == '#':
			k, err := tableIndex(c, len(t.ids))
			if err != nil {
				refErr = fmt.Errorf("?%s: %w", d.vars[i], err)
				break cells
			}
			d.ids[i] = uint32(k)
		default:
			t.text = append(t.text, c)
			t.ids = append(t.ids, 0)
		}
	}
	if len(t.text) > 0 {
		if j, err := dict.InternText(t.text, t.ids[first:]); err != nil {
			for i, c := range d.cells {
				if len(c) > 0 && c[0] != '#' {
					if j--; j < 0 {
						return fmt.Errorf("?%s: %w", d.vars[i], err)
					}
				}
			}
		}
	}
	if refErr != nil {
		return refErr
	}
	for i, c := range d.cells {
		switch {
		case len(c) == 0:
		case c[0] == '#':
			d.ids[i] = t.ids[d.ids[i]]
		default:
			d.ids[i] = t.ids[first]
			first++
		}
	}
	return nil
}

// errMixedReads fails a response with back-references read through both
// Read and ReadIDs: the second would find the other's table.
var errMixedReads = errors.New("a response with back-references read through both Read and ReadIDs")

// tableIndex parses the back-reference cell #k against a table of n
// entries: k must be decimal digits naming an entry.
func tableIndex[S ~string | ~[]byte](cell S, n int) (int, error) {
	if len(cell) < 2 {
		return 0, errors.New("empty back-reference #")
	}
	k := 0
	for _, c := range []byte(cell[1:]) {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("malformed back-reference %q", cell)
		}
		// k stays below 10n+10 and cannot overflow.
		if k = 10*k + int(c-'0'); k >= n {
			return 0, fmt.Errorf("back-reference %q past the table's %d entries", cell, n)
		}
	}
	return k, nil
}

// next reads one solution line, slices it into d.cells, one per header
// variable, and hands it to decode, keeping the end-of-stream and
// sticky-error state.
func (d *TSVDecoder) next(decode func(line []byte) error) error {
	if d.err != nil {
		return d.err
	}
	if d.done || d.closed {
		return io.EOF
	}
	line, err := d.readLine()
	if errors.Is(err, io.EOF) {
		d.done = true
		return io.EOF
	}
	if err == nil {
		err = d.split(line)
	}
	if err == nil {
		err = decode(line)
	}
	if err != nil {
		d.err = fmt.Errorf("sparql: tsv solution %d: %w", d.rows+1, err)
		return d.err
	}
	d.rows++
	return nil
}

// split slices one solution line into d.cells, one per header variable.
func (d *TSVDecoder) split(line []byte) error {
	rest := line
	for i := range d.cells {
		cell, tail, more := bytes.Cut(rest, []byte{'\t'})
		if more == (i == len(d.cells)-1) {
			return fmt.Errorf("%d fields, header has %d", bytes.Count(line, []byte{'\t'})+1, len(d.vars))
		}
		d.cells[i], rest = cell, tail
	}
	if len(d.cells) == 0 && len(line) != 0 {
		return fmt.Errorf("%d fields, header has 0", bytes.Count(line, []byte{'\t'})+1)
	}
	return nil
}

// Close implements RowReader. It recycles the back-reference table unless
// a huge response grew it.
func (d *TSVDecoder) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	if t := d.table; t != nil && cap(t.terms) <= maxPooledEntries && cap(t.ids) <= maxPooledEntries {
		clear(t.terms)
		clear(t.text[:cap(t.text)])
		t.terms, t.ids, t.text = t.terms[:0], t.ids[:0], t.text[:0]
		refTables.Put(t)
	}
	d.table = nil
	return d.rc.Close()
}
