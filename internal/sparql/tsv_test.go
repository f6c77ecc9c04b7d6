package sparql

import (
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lusail/internal/rdf"
)

func tsvDecoderFor(t *testing.T, doc string) *TSVDecoder {
	t.Helper()
	d, err := NewTSVDecoder(io.NopCloser(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("NewTSVDecoder: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func readAllTSV(t *testing.T, doc string) *Results {
	t.Helper()
	res, err := ReadAllRows(tsvDecoderFor(t, doc))
	if err != nil {
		t.Fatalf("decoding %q: %v", doc, err)
	}
	return res
}

// TSV as other endpoints write it: $ variables, CRLF, Turtle shorthand
// numbers and booleans, empty cells for unbound variables.
func TestTSVDecoderThirdParty(t *testing.T) {
	res := readAllTSV(t, "$x\t$y\r\n"+
		"5\ttrue\r\n"+
		"<http://ex.org/a>\t\r\n"+
		"\t\"caf\\u00E9\"@fr\r\n"+
		"_:b0\t-1.5e3\r\n")
	want := [][]rdf.Term{
		{rdf.NewTypedLiteral("5", rdf.XSDInteger), rdf.NewBoolean(true)},
		{rdf.NewIRI("http://ex.org/a"), {}},
		{{}, rdf.NewLangLiteral("café", "fr")},
		{rdf.NewBlank("b0"), rdf.NewTypedLiteral("-1.5e3", rdf.XSDDouble)},
	}
	if !reflect.DeepEqual(res.Vars, []string{"x", "y"}) || !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("decoded %v %v, want [x y] %v", res.Vars, res.Rows, want)
	}
}

// An empty header means solutions that bind no variables, one per line.
func TestTSVDecoderZeroVariables(t *testing.T) {
	if res := readAllTSV(t, "\n\r\n\n"); len(res.Vars) != 0 || len(res.Rows) != 2 {
		t.Fatalf("decoded %d vars, %d rows; want 0, 2", len(res.Vars), len(res.Rows))
	}
	if res := readAllTSV(t, "\n"); len(res.Rows) != 0 {
		t.Fatalf("decoded %d rows, want 0", len(res.Rows))
	}
}

func TestTSVDecoderMalformed(t *testing.T) {
	for _, doc := range []string{
		"?x\n<http://a>\t<http://b>\n", // more fields than the header
		"?x\t?y\n<http://a>\n",         // fewer
		"\n<http://a>\n",               // any field under an empty header
		"?x\nnot-a-term\n",
		"?x\n\"unterminated\n",
	} {
		d := tsvDecoderFor(t, doc)
		_, err := ReadAllRows(d)
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%q: err = %v, want a decode error", doc, err)
		}
	}
	for _, header := range []string{"x\n", "?x\t\n", "?\n", "?a b\n"} {
		if _, err := NewTSVDecoder(io.NopCloser(strings.NewReader(header))); err == nil {
			t.Errorf("header %q accepted", header)
		}
	}
}

// TSV has no closing token: a body that stops inside a line, the header
// line included, is io.ErrUnexpectedEOF — never a complete result.
func TestTSVDecoderTruncated(t *testing.T) {
	for _, doc := range []string{"", "?x", "?x\n<http://a>\n<http://b"} {
		d, err := NewTSVDecoder(io.NopCloser(strings.NewReader(doc)))
		if err == nil {
			_, err = ReadAllRows(d)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%q: err = %v, want io.ErrUnexpectedEOF", doc, err)
		}
	}
}

// Lines longer than the read buffer are accumulated, not split.
func TestTSVDecoderLongLines(t *testing.T) {
	long := rdf.NewLiteral(strings.Repeat("x\ty\"", 5000))
	res := NewResults([]string{"a", "b"})
	res.Rows = [][]rdf.Term{{long, rdf.NewIRI("http://a")}, {rdf.NewIRI("http://b"), long}}
	var buf strings.Builder
	if err := res.Write(&buf, FormatTSV); err != nil {
		t.Fatal(err)
	}
	if got := readAllTSV(t, buf.String()); !sameResults(got, res) {
		t.Fatal("long lines did not round-trip")
	}
}

// The TSV writer holds the header until its first Flush, so a server that
// fails before any row can still answer with an error status; flushed
// rows read back as Results.Write writes them in TSV.
func TestTSVStreamFlush(t *testing.T) {
	var buf strings.Builder
	s := NewRowWriter(&buf, FormatTSV, []string{"x", "y"})
	if buf.Len() != 0 {
		t.Fatalf("header reached the writer before Flush: %q", buf.String())
	}
	row := []rdf.Term{rdf.NewIRI("http://a"), {}}
	if err := s.WriteRow(row); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil || buf.String() != "?x\t?y\n<http://a>\t\n" {
		t.Fatalf("after Flush: %q, %v", buf.String(), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	res := NewResults([]string{"x", "y"})
	res.Rows = [][]rdf.Term{row}
	var whole strings.Builder
	if err := res.Write(&whole, FormatTSV); err != nil || whole.String() != buf.String() {
		t.Fatalf("Write wrote %q, %v; the stream %q", whole.String(), err, buf.String())
	}
}

// An integer or boolean that Turtle's shorthand spells exactly is written
// bare; one it would read back as another term keeps its datatype.
func TestTSVShorthand(t *testing.T) {
	res := NewResults([]string{"a", "b", "c", "d", "e", "f", "g", "h"})
	res.Rows = [][]rdf.Term{{
		rdf.NewIRI("http://a"),
		rdf.NewInteger(12),
		rdf.NewBoolean(true),
		rdf.NewTypedLiteral("+007", rdf.XSDInteger),
		rdf.NewTypedLiteral("1.0", rdf.XSDInteger),
		rdf.NewTypedLiteral("1", rdf.XSDBoolean),
		rdf.NewLiteral("12"),
		{},
	}}
	var buf strings.Builder
	if err := res.Write(&buf, FormatTSV); err != nil {
		t.Fatal(err)
	}
	const want = "?a\t?b\t?c\t?d\t?e\t?f\t?g\t?h\n" +
		"<http://a>\t12\ttrue\t+007\t\"1.0\"^^<http://www.w3.org/2001/XMLSchema#integer>\t" +
		"\"1\"^^<http://www.w3.org/2001/XMLSchema#boolean>\t\"12\"\t\n"
	if buf.String() != want {
		t.Fatalf("wrote %q\nwant  %q", buf.String(), want)
	}
	if got := readAllTSV(t, buf.String()); !sameResults(got, res) {
		t.Fatalf("round trip: %v, want %v", got.Rows, res.Rows)
	}
}

func TestWriteTSVRejectsUnwritableTerms(t *testing.T) {
	for _, term := range []rdf.Term{rdf.NewBlank("a b"), rdf.NewBlank(""), rdf.NewLangLiteral("x", "en\nfr")} {
		res := NewResults([]string{"x"})
		res.Rows = [][]rdf.Term{{term}}
		if err := res.Write(io.Discard, FormatTSV); err == nil {
			t.Errorf("Write(%#v) succeeded", term)
		}
	}
}

// writeTSV is Results.Write in TSV as a function value.
func writeTSV(r *Results, w io.Writer) error { return r.Write(w, FormatTSV) }

// sameResults compares two result sets as decoders see them: a nil and an
// empty variable list or row are the same.
func sameResults(a, b *Results) bool {
	if a.IsBoolean || b.IsBoolean {
		return a.IsBoolean == b.IsBoolean && a.Boolean == b.Boolean
	}
	if len(a.Vars) != len(b.Vars) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			return false
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}

// randomTSVTerm draws any term the TSV writer can write: every kind, with tabs,
// newlines, quotes, backslashes, angle brackets and non-ASCII in values
// and IRIs.
func randomTSVTerm(rng *rand.Rand) rdf.Term {
	const alphabet = "ab\t\n\r\"\\<> {}|^`é😀\x00\x7f"
	text := func(n int) string {
		runes := []rune(alphabet)
		var b strings.Builder
		for i := rng.Intn(n); i > 0; i-- {
			b.WriteRune(runes[rng.Intn(len(runes))])
		}
		return b.String()
	}
	switch rng.Intn(7) {
	case 0:
		return rdf.NewIRI("http://ex.org/" + text(12))
	case 1:
		return rdf.NewBlank("b" + strings.Repeat("x", rng.Intn(3)))
	case 2:
		return rdf.NewLiteral(text(12))
	case 3:
		return rdf.NewLangLiteral(text(8), []string{"en", "fr-CA", "x-é"}[rng.Intn(3)])
	case 4:
		return rdf.NewTypedLiteral(text(8), "http://dt.org/"+text(4))
	case 5:
		return rdf.NewInteger(rng.Int63n(2000) - 1000)
	default:
		return rdf.NewBoolean(rng.Intn(2) == 0)
	}
}

// Property: the TSV writer then TSVDecoder reproduces any result set exactly —
// every term kind, unbound cells, and zero-variable solutions.
func TestTSVRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20170514))
	for trial := 0; trial < 500; trial++ {
		res := NewResults(nil)
		for i := rng.Intn(4); i > 0; i-- {
			res.Vars = append(res.Vars, "v"+string(rune('a'+len(res.Vars))))
		}
		for i := rng.Intn(6); i > 0; i-- {
			row := make([]rdf.Term, len(res.Vars))
			for j := range row {
				if rng.Intn(5) > 0 {
					row[j] = randomTSVTerm(rng)
				}
			}
			res.Rows = append(res.Rows, row)
		}
		var buf strings.Builder
		if err := res.Write(&buf, FormatTSV); err != nil {
			t.Fatalf("trial %d: Write: %v", trial, err)
		}
		if got := readAllTSV(t, buf.String()); !sameResults(got, res) {
			t.Fatalf("trial %d: round trip changed the results\nwrote %q\n got %v\nwant %v", trial, buf.String(), got.Rows, res.Rows)
		}
	}
}

func TestNegotiate(t *testing.T) {
	const client = "text/tab-separated-values, application/sparql-results+json;q=0.9"
	tests := []struct {
		accept string
		ask    bool
		want   Format
	}{
		{"", false, FormatJSON},
		{"*/*", false, FormatJSON},
		{"application/*", false, FormatJSON},
		{"text/html, */*;q=0.8", false, FormatJSON},
		{"text/plain", false, FormatJSON},
		{"application/sparql-results+json", false, FormatJSON},
		{"application/json", false, FormatJSON},
		{"text/csv", false, FormatCSV},
		{"text/csv; charset=utf-8", false, FormatCSV},
		{"TEXT/CSV", false, FormatCSV},
		{"application/xml", false, FormatXML},
		{"application/sparql-results+xml", false, FormatXML},
		{"text/tab-separated-values", false, FormatTSV},
		{client, false, FormatTSV},
		// q-values decide; a substring match would answer CSV here.
		{"application/sparql-results+json, text/csv;q=0.1", false, FormatJSON},
		{"text/csv;q=0.5, application/sparql-results+xml;q=0.6", false, FormatXML},
		{"text/tab-separated-values;q=0, */*", false, FormatJSON},
		{"text/csv;q=0", false, FormatJSON},
		{"text/csv;q=oops, text/tab-separated-values;q=0.2", false, FormatTSV},
		// Ties keep the historical order: CSV, XML, TSV, JSON.
		{"application/sparql-results+json, text/tab-separated-values, application/xml, text/csv", false, FormatCSV},
		{"application/sparql-results+json, text/tab-separated-values, application/xml", false, FormatXML},
		{"application/sparql-results+json, text/tab-separated-values", false, FormatTSV},
		{"text/csv, */*", false, FormatCSV},
		// ASK is always JSON.
		{client, true, FormatJSON},
		{"text/csv", true, FormatJSON},
		{"application/sparql-results+xml", true, FormatJSON},
	}
	for _, tc := range tests {
		if got := Negotiate(tc.accept, tc.ask); got != tc.want {
			t.Errorf("Negotiate(%q, ask=%v) = %v, want %v", tc.accept, tc.ask, got, tc.want)
		}
	}
}

func TestIsAsk(t *testing.T) {
	tests := map[string]bool{
		"ASK { ?s ?p ?o }":        true,
		"ask{?s ?p ?o}":           true,
		"  # probe\nASK WHERE {}": true,
		"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\nASK { ?x a ub:Student }": true,
		"BASE <http://ex.org/> PREFIX : <http://ex.org/a#> ASK { ?s ?p ?o }":                    true,
		"SELECT ?s WHERE { ?s ?p ?o }":                               false,
		"PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p ?o }": false,
		"SELECT ?ask WHERE { ?ask ?p ?o }":                           false,
		"CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }":                  false,
		"PREFIX ex: <http://ex.org/":                                 false,
		"":                                                           false,
	}
	for q, want := range tests {
		if got := IsAsk(q); got != want {
			t.Errorf("IsAsk(%q) = %v, want %v", q, got, want)
		}
	}
}
