package sparql

import (
	"encoding/json"
	"io"
	"strconv"

	"lusail/internal/rdf"
)

// JSONStream writes a SPARQL 1.1 JSON results document incrementally: the
// head is emitted on creation and each solution is appended as its own
// bindings object, so a serving layer can flush rows to the wire as the
// engine produces them instead of materializing the whole result set.
//
// The stream is not safe for concurrent use; callers serialize WriteRow.
// After any write error the stream is poisoned and further calls return the
// first error.
type JSONStream struct {
	w    io.Writer
	vars []string
	rows int
	err  error
}

// NewJSONStream writes the document head for the given variables and
// returns the stream. Close terminates the document.
func NewJSONStream(w io.Writer, vars []string) (*JSONStream, error) {
	s := &JSONStream{w: w, vars: vars}
	if err := s.writeHead(vars); err != nil {
		return nil, err
	}
	s.write(`,"results":{"bindings":[`)
	return s, s.err
}

// writeJSONBoolean writes the boolean (ASK) form of a results document.
func writeJSONBoolean(w io.Writer, vars []string, v bool) error {
	s := &JSONStream{w: w}
	if err := s.writeHead(vars); err != nil {
		return err
	}
	s.write(`,"boolean":` + strconv.FormatBool(v) + `}`)
	return s.err
}

// writeHead opens the document with its head member.
func (s *JSONStream) writeHead(vars []string) error {
	head, err := json.Marshal(jsonHead{Vars: vars})
	if err != nil {
		return err
	}
	s.write(`{"head":`)
	s.writeBytes(head)
	return s.err
}

// WriteRow appends one solution, its terms aligned to the stream's
// variables. Unbound variables are omitted.
func (s *JSONStream) WriteRow(row []rdf.Term) error {
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
		s.write(",")
	}
	s.writeBytes(data)
	s.rows++
	return s.err
}

// Flush returns the first write error, if any: a JSONStream buffers
// nothing, so every row has already reached w. It mirrors TSVStream.Flush.
func (s *JSONStream) Flush() error { return s.err }

// Rows returns the number of solutions written so far.
func (s *JSONStream) Rows() int { return s.rows }

// Close terminates the document. The stream is unusable afterwards.
func (s *JSONStream) Close() error {
	if s.err != nil {
		return s.err
	}
	s.write("]}}")
	return s.err
}

// Err returns the first write error, if any.
func (s *JSONStream) Err() error { return s.err }

func (s *JSONStream) write(str string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, str)
}

func (s *JSONStream) writeBytes(b []byte) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.Write(b)
}
