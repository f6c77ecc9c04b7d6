package sparql

import (
	"errors"

	"encoding/json"
	"fmt"
	"io"
	"slices"

	"lusail/internal/rdf"
)

// RowReader is the pull interface over an incrementally decoded SPARQL
// result stream: rows become available one at a time, as they are parsed
// off the wire, instead of after the whole document has been materialized.
//
// Read returns the next solution aligned to Vars (unbound variables are
// zero Terms) and io.EOF after the last one; the returned slice is only
// valid until the next Read. Close releases the underlying source and is
// safe to call at any point, including mid-stream and more than once.
type RowReader interface {
	Vars() []string
	Read() ([]rdf.Term, error)
	Close() error
}

// IDReader is the optional id read path of a RowReader: ReadIDs is Read
// with the row's terms interned into dict (0 for unbound).
type IDReader interface {
	ReadIDs(dict *rdf.Dict) ([]uint32, error)
}

// IDsOf returns r's own id read path, or one that interns r.Read's rows.
func IDsOf(r RowReader) IDReader {
	if ir, ok := r.(IDReader); ok {
		return ir
	}
	return &internReader{r: r}
}

type internReader struct {
	r   RowReader
	ids []uint32
}

func (x *internReader) ReadIDs(dict *rdf.Dict) ([]uint32, error) {
	row, err := x.r.Read()
	if err != nil {
		return nil, err
	}
	x.ids = slices.Grow(x.ids[:0], len(row))[:len(row)]
	dict.InternRow(row, x.ids)
	return x.ids, nil
}

// BooleanReader is implemented by RowReaders that carry an ASK result.
// Boolean reports the value and whether the stream was a boolean document.
type BooleanReader interface {
	Boolean() (value, ok bool)
}

// JSONDecoder incrementally decodes a SPARQL 1.1 JSON results document
// ({"head":{"vars":[...]},"results":{"bindings":[...]}}): the head is
// parsed on construction and each bindings object is parsed on demand by
// Read, so a caller holds one row in memory instead of the whole result
// set. Boolean (ASK) documents are recognized; Read then reports io.EOF
// immediately and Boolean returns the value.
//
// The "head" member must precede "results", which every known endpoint
// (and this package's own writers) satisfies.
type JSONDecoder struct {
	rc  io.ReadCloser
	dec *json.Decoder

	vars    []string
	varIdx  map[string]int
	row     []rdf.Term
	raw     map[string]jsonTerm
	rows    int
	isBool  bool
	boolVal bool

	inBindings bool
	done       bool
	closed     bool
	err        error
}

// NewJSONDecoder reads the document head from rc and positions the decoder
// at the first binding. The decoder owns rc and closes it on Close.
func NewJSONDecoder(rc io.ReadCloser) (*JSONDecoder, error) {
	d := &JSONDecoder{rc: rc, dec: json.NewDecoder(rc)}
	if err := d.readHead(); err != nil {
		rc.Close()
		return nil, err
	}
	return d, nil
}

func (d *JSONDecoder) readHead() error {
	if err := d.expectDelim('{'); err != nil {
		return fmt.Errorf("sparql: results document: %w", unexpectedEOF(err))
	}
	for {
		tok, err := d.dec.Token()
		if err != nil {
			return fmt.Errorf("sparql: results document: %w", unexpectedEOF(err))
		}
		if delim, ok := tok.(json.Delim); ok && delim == '}' {
			// No results/boolean member at all: an empty (zero-row) stream.
			d.done = true
			return nil
		}
		key, ok := tok.(string)
		if !ok {
			return fmt.Errorf("sparql: results document: unexpected token %v", tok)
		}
		switch key {
		case "head":
			var h jsonHead
			if err := d.dec.Decode(&h); err != nil {
				return fmt.Errorf("sparql: results head: %w", unexpectedEOF(err))
			}
			d.vars = h.Vars
			d.varIdx = make(map[string]int, len(h.Vars))
			for i, v := range h.Vars {
				d.varIdx[v] = i
			}
			d.row = make([]rdf.Term, len(h.Vars))
		case "boolean":
			if err := d.dec.Decode(&d.boolVal); err != nil {
				return fmt.Errorf("sparql: boolean result: %w", unexpectedEOF(err))
			}
			d.isBool = true
			d.done = true
			return nil
		case "results":
			if err := d.expectDelim('{'); err != nil {
				return fmt.Errorf("sparql: results member: %w", unexpectedEOF(err))
			}
			for {
				tok, err := d.dec.Token()
				if err != nil {
					return fmt.Errorf("sparql: results member: %w", unexpectedEOF(err))
				}
				if delim, ok := tok.(json.Delim); ok && delim == '}' {
					d.done = true // results object without bindings
					return nil
				}
				innerKey, ok := tok.(string)
				if !ok {
					return fmt.Errorf("sparql: results member: unexpected token %v", tok)
				}
				if innerKey == "bindings" {
					if err := d.expectDelim('['); err != nil {
						return fmt.Errorf("sparql: bindings: %w", unexpectedEOF(err))
					}
					d.inBindings = true
					return nil
				}
				if err := d.skipValue(); err != nil {
					return err
				}
			}
		default:
			if err := d.skipValue(); err != nil {
				return err
			}
		}
	}
}

// unexpectedEOF converts a bare io.EOF from the underlying JSON decoder
// into io.ErrUnexpectedEOF: inside a document, running out of bytes means
// the body was cut off, and the result must never satisfy
// errors.Is(err, io.EOF) — that sentinel is reserved for a clean end of a
// complete bindings array.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (d *JSONDecoder) expectDelim(want json.Delim) error {
	tok, err := d.dec.Token()
	if err != nil {
		return unexpectedEOF(err)
	}
	if delim, ok := tok.(json.Delim); !ok || delim != want {
		return fmt.Errorf("expected %q, got %v", want, tok)
	}
	return nil
}

func (d *JSONDecoder) skipValue() error {
	var raw json.RawMessage
	if err := d.dec.Decode(&raw); err != nil {
		return fmt.Errorf("sparql: results document: %w", unexpectedEOF(err))
	}
	return nil
}

// Vars implements RowReader.
func (d *JSONDecoder) Vars() []string { return d.vars }

// Boolean implements BooleanReader.
func (d *JSONDecoder) Boolean() (bool, bool) { return d.boolVal, d.isBool }

// Rows returns the number of solutions decoded so far.
func (d *JSONDecoder) Rows() int { return d.rows }

// Read implements RowReader.
func (d *JSONDecoder) Read() ([]rdf.Term, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.done || d.closed {
		return nil, io.EOF
	}
	if !d.dec.More() {
		if err := d.finish(); err != nil {
			d.err = err
			return nil, err
		}
		d.done = true
		return nil, io.EOF
	}
	clear(d.raw)
	if d.raw == nil {
		d.raw = make(map[string]jsonTerm, len(d.vars))
	}
	if err := d.dec.Decode(&d.raw); err != nil {
		d.err = fmt.Errorf("sparql: decoding binding: %w", unexpectedEOF(err))
		return nil, d.err
	}
	for i := range d.row {
		d.row[i] = rdf.Term{}
	}
	for name, jt := range d.raw {
		i, ok := d.varIdx[name]
		if !ok {
			continue // a variable missing from head: ignore, as the batch parser does
		}
		t, err := termFromJSON(jt)
		if err != nil {
			d.err = fmt.Errorf("sparql: decoding binding: %w", unexpectedEOF(err))
			return nil, d.err
		}
		d.row[i] = t
	}
	d.rows++
	return d.row, nil
}

// finish consumes the document past the end of the bindings array so a
// well-formed tail is verified and the connection can be reused.
func (d *JSONDecoder) finish() error {
	if err := d.expectDelim(']'); err != nil {
		return fmt.Errorf("sparql: bindings: %w", unexpectedEOF(err))
	}
	// Remaining members of the results object, then of the top object.
	for depth := 2; depth > 0; {
		tok, err := d.dec.Token()
		if err != nil {
			return fmt.Errorf("sparql: results document: %w", unexpectedEOF(err))
		}
		if delim, ok := tok.(json.Delim); ok && delim == '}' {
			depth--
			continue
		}
		if _, ok := tok.(string); !ok {
			return fmt.Errorf("sparql: results document: unexpected token %v", tok)
		}
		if err := d.skipValue(); err != nil {
			return err
		}
	}
	return nil
}

// Close implements RowReader.
func (d *JSONDecoder) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	return d.rc.Close()
}

// resultsReader adapts a materialized Results into a RowReader.
type resultsReader struct {
	res *Results
	i   int
}

// NewResultsReader returns a RowReader over an already-materialized result
// set — the adapter for endpoints that cannot stream (in-process stores).
func NewResultsReader(res *Results) RowReader {
	return &resultsReader{res: res}
}

func (r *resultsReader) Vars() []string { return r.res.Vars }

func (r *resultsReader) Boolean() (bool, bool) { return r.res.Boolean, r.res.IsBoolean }

func (r *resultsReader) Read() ([]rdf.Term, error) {
	if r.i >= len(r.res.Rows) {
		return nil, io.EOF
	}
	row := r.res.Rows[r.i]
	r.i++
	return row, nil
}

func (r *resultsReader) Close() error {
	r.i = len(r.res.Rows)
	return nil
}

// ReadAllRows drains a RowReader into a materialized Results and closes
// it — the bridge from the streaming path back to batch callers. Boolean
// streams produce a boolean Results.
func ReadAllRows(r RowReader) (*Results, error) {
	defer r.Close()
	if br, ok := r.(BooleanReader); ok {
		if v, isBool := br.Boolean(); isBool {
			return BoolResults(v), nil
		}
	}
	res := NewResults(append([]string(nil), r.Vars()...))
	var slab []rdf.Term // rows are carved from slabs that double with the result
	//lint:lusail-vet budgetbound -- callers hand in readers over MaxResponseBytes-limited bodies; the cap bounds the decoded total
	for {
		row, err := r.Read()
		if errors.Is(err, io.EOF) {
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		if len(slab) < len(row) {
			slab = make([]rdf.Term, len(row)*min(max(len(res.Rows), 1), 1024))
		}
		res.Rows = append(res.Rows, slab[:len(row):len(row)])
		copy(res.Rows[len(res.Rows)-1], row)
		slab = slab[len(row):]
	}
}
