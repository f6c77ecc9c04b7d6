package sparql

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"lusail/internal/rdf"
)

// Results is a SPARQL result set: a sequence of solutions over a fixed
// variable list for SELECT queries, or a boolean for ASK queries.
//
// Rows are aligned with Vars; a zero rdf.Term means the variable is unbound
// in that solution.
type Results struct {
	Vars    []string
	Rows    [][]rdf.Term
	Boolean bool // ASK result; meaningful only when IsBoolean
	// IsBoolean marks an ASK result.
	IsBoolean bool
}

// NewResults returns an empty SELECT result set over the given variables.
func NewResults(vars []string) *Results {
	return &Results{Vars: vars}
}

// BoolResults returns an ASK result.
func BoolResults(v bool) *Results {
	return &Results{IsBoolean: true, Boolean: v}
}

// Len returns the number of solutions.
func (r *Results) Len() int { return len(r.Rows) }

// VarIndex returns the column index of the variable, or -1.
func (r *Results) VarIndex(v string) int {
	for i, name := range r.Vars {
		if name == v {
			return i
		}
	}
	return -1
}

// Binding returns row i as a variable→term map, skipping unbound variables.
func (r *Results) Binding(i int) map[string]rdf.Term {
	m := make(map[string]rdf.Term, len(r.Vars))
	for j, v := range r.Vars {
		if !r.Rows[i][j].IsZero() {
			m[v] = r.Rows[i][j]
		}
	}
	return m
}

// Column returns the distinct bound values of a variable.
func (r *Results) Column(v string) []rdf.Term {
	idx := r.VarIndex(v)
	if idx < 0 {
		return nil
	}
	seen := map[rdf.Term]bool{}
	var out []rdf.Term
	for _, row := range r.Rows {
		t := row[idx]
		if !t.IsZero() && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// Sort orders rows by the canonical term ordering over all columns. It makes
// result sets comparable in tests.
func (r *Results) Sort() {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// jsonHead and jsonTerm mirror the SPARQL 1.1 Query Results JSON Format's
// head and RDF term objects; the JSON RowWriter writes and JSONDecoder reads
// them.
type jsonHead struct {
	Vars []string `json:"vars,omitempty"`
}

type jsonTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

func termToJSON(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.IRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.Blank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Lang: t.Lang, Datatype: t.Datatype}
	}
}

func termFromJSON(j jsonTerm) (rdf.Term, error) {
	switch j.Type {
	case "uri":
		return rdf.NewIRI(j.Value), nil
	case "bnode":
		return rdf.NewBlank(j.Value), nil
	case "literal", "typed-literal":
		return rdf.Term{Kind: rdf.Literal, Value: j.Value, Lang: j.Lang, Datatype: j.Datatype}, nil
	}
	return rdf.Term{}, fmt.Errorf("sparql results: unknown term type %q", j.Type)
}

// ParseResultsJSON reads a SPARQL JSON results document.
func ParseResultsJSON(data []byte) (*Results, error) {
	d, err := NewJSONDecoder(io.NopCloser(bytes.NewReader(data)))
	if err != nil {
		return nil, err
	}
	return ReadAllRows(d)
}
