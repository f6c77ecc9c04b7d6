package sparql

import (
	"encoding/xml"
	"fmt"

	"lusail/internal/rdf"
)

// The SPARQL Query Results XML Format (https://www.w3.org/TR/rdf-sparql-XMLres/).

type xmlSparql struct {
	XMLName xml.Name    `xml:"http://www.w3.org/2005/sparql-results# sparql"`
	Head    xmlHead     `xml:"head"`
	Boolean *bool       `xml:"boolean,omitempty"`
	Results *xmlResults `xml:"results"`
}

type xmlHead struct {
	Variables []xmlVariable `xml:"variable"`
}

type xmlVariable struct {
	Name string `xml:"name,attr"`
}

type xmlResults struct {
	Results []xmlResult `xml:"result"`
}

type xmlResult struct {
	Bindings []xmlBinding `xml:"binding"`
}

type xmlBinding struct {
	Name    string      `xml:"name,attr"`
	URI     *string     `xml:"uri,omitempty"`
	BNode   *string     `xml:"bnode,omitempty"`
	Literal *xmlLiteral `xml:"literal,omitempty"`
}

type xmlLiteral struct {
	Lang     string `xml:"http://www.w3.org/XML/1998/namespace lang,attr,omitempty"`
	Datatype string `xml:"datatype,attr,omitempty"`
	Value    string `xml:",chardata"`
}

// xmlOpen starts every XML results document.
const xmlOpen = xml.Header + `<sparql xmlns="http://www.w3.org/2005/sparql-results#">`

// xmlStream writes the SPARQL Query Results XML Format, byte for byte as
// encoding/xml marshals an xmlSparql: no indentation, every element
// closed by its own end tag, text and attributes escaped by
// xml.EscapeText.
type xmlStream struct {
	chunkBuf
	vars []string
}

func newXMLStream(c chunkBuf, vars []string) *xmlStream {
	s := &xmlStream{chunkBuf: c, vars: vars}
	s.buf = append(s.buf, xmlOpen+`<head>`...)
	for _, v := range vars {
		s.buf = append(s.buf, `<variable`...)
		s.attr("name", v)
		s.buf = append(s.buf, `></variable>`...)
	}
	s.buf = append(s.buf, `</head><results>`...)
	return s
}

func (s *xmlStream) WriteRow(row []rdf.Term) error {
	if s.err != nil {
		return s.err
	}
	s.buf = append(s.buf, `<result>`...)
	for i, t := range row {
		if t.IsZero() || i >= len(s.vars) {
			continue
		}
		s.buf = append(s.buf, `<binding`...)
		s.attr("name", s.vars[i])
		switch t.Kind {
		case rdf.IRI:
			s.buf = append(s.buf, `><uri>`...)
			s.text(t.Value)
			s.buf = append(s.buf, `</uri></binding>`...)
		case rdf.Blank:
			s.buf = append(s.buf, `><bnode>`...)
			s.text(t.Value)
			s.buf = append(s.buf, `</bnode></binding>`...)
		default:
			s.buf = append(s.buf, `><literal`...)
			if t.Lang != "" {
				s.attr("xml:lang", t.Lang)
			}
			if t.Datatype != "" {
				s.attr("datatype", t.Datatype)
			}
			s.buf = append(s.buf, '>')
			s.text(t.Value)
			s.buf = append(s.buf, `</literal></binding>`...)
		}
	}
	s.buf = append(s.buf, `</result>`...)
	return s.endRow()
}

// attr appends ` name="value"`.
func (s *xmlStream) attr(name, value string) {
	s.buf = append(append(append(s.buf, ' '), name...), `="`...)
	s.text(value)
	s.buf = append(s.buf, '"')
}

// text appends s escaped for XML character data or an attribute value.
func (s *xmlStream) text(v string) {
	xml.EscapeText(&s.chunkBuf, []byte(v)) // appending to the buffer never fails
}

func (s *xmlStream) Close() error { return s.closeWith(`</results></sparql>`) }

// ParseResultsXML reads a SPARQL XML results document.
func ParseResultsXML(data []byte) (*Results, error) {
	var doc xmlSparql
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("sparql results xml: %w", err)
	}
	if doc.Boolean != nil {
		return BoolResults(*doc.Boolean), nil
	}
	out := NewResults(nil)
	for _, v := range doc.Head.Variables {
		out.Vars = append(out.Vars, v.Name)
	}
	if doc.Results == nil {
		return out, nil
	}
	for _, res := range doc.Results.Results {
		row := make([]rdf.Term, len(out.Vars))
		for _, b := range res.Bindings {
			idx := out.VarIndex(b.Name)
			if idx < 0 {
				continue
			}
			switch {
			case b.URI != nil:
				row[idx] = rdf.NewIRI(*b.URI)
			case b.BNode != nil:
				row[idx] = rdf.NewBlank(*b.BNode)
			case b.Literal != nil:
				row[idx] = rdf.Term{
					Kind:     rdf.Literal,
					Value:    b.Literal.Value,
					Lang:     b.Literal.Lang,
					Datatype: b.Literal.Datatype,
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
