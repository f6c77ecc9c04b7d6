package sparql

import (
	"bytes"
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
		"?x\n<http://a>\n#0\n", // a back-reference, which plain TSV has not
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
	const engine = "text/x-lusail-tsv-refs, text/tab-separated-values;q=0.95, application/sparql-results+json;q=0.9"
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
		// TSV with back-references only when named: the engine's header
		// gets it, its old TSV-first header and wildcards do not.
		{engine, false, FormatTSVRefs},
		{"text/x-lusail-tsv-refs", false, FormatTSVRefs},
		{"text/x-lusail-tsv-refs;q=0.5, text/tab-separated-values", false, FormatTSV},
		{"text/x-lusail-tsv-refs, text/tab-separated-values", false, FormatTSVRefs},
		{"*/*, text/tab-separated-values;q=0.5", false, FormatJSON},
		{engine, true, FormatJSON},
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

// A repeated cell is written #k, k the index of its first text cell, only
// when that is shorter; a repeat written as text is a table entry too.
func TestTSVRefsWriter(t *testing.T) {
	a, long := rdf.NewIRI("http://a"), rdf.NewLiteral("a literal longer than its reference")
	res := NewResults([]string{"x", "y", "z", "w"})
	res.Rows = [][]rdf.Term{
		{rdf.NewInteger(12), rdf.NewInteger(12), a, a},
		{long, {}, a, rdf.NewInteger(12)},
		{long, long, rdf.NewBoolean(true), {}},
	}
	var refs, plain strings.Builder
	if err := res.Write(&refs, FormatTSVRefs); err != nil {
		t.Fatal(err)
	}
	const want = "?x\t?y\t?z\t?w\n" +
		"12\t12\t<http://a>\t#2\n" +
		"\"a literal longer than its reference\"\t\t#2\t12\n" +
		"#3\t#3\ttrue\t\n"
	if refs.String() != want {
		t.Fatalf("wrote %q\nwant  %q", refs.String(), want)
	}
	if err := res.Write(&plain, FormatTSV); err != nil {
		t.Fatal(err)
	}
	if refs.Len() >= plain.Len() {
		t.Errorf("%d bytes with back-references, %d without", refs.Len(), plain.Len())
	}
	if got := readAllTSVRefs(t, refs.String()); !sameResults(got, res) {
		t.Fatalf("round trip: %v, want %v", got.Rows, res.Rows)
	}
}

func readAllTSVRefs(t *testing.T, doc string) *Results {
	t.Helper()
	d, err := NewTSVRefsDecoder(io.NopCloser(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("NewTSVRefsDecoder: %v", err)
	}
	defer d.Close()
	res, err := ReadAllRows(d)
	if err != nil {
		t.Fatalf("decoding %q: %v", doc, err)
	}
	return res
}

// A back-reference may name a text cell earlier on its own line; both
// read paths resolve it.
func TestTSVRefsSameLine(t *testing.T) {
	const doc = "?x\t?y\n<http://a>\t#0\n#0\t<http://b>\n"
	a, b := rdf.NewIRI("http://a"), rdf.NewIRI("http://b")
	want := [][]rdf.Term{{a, a}, {a, b}}
	if got := readAllTSVRefs(t, doc); !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("Read: %v, want %v", got.Rows, want)
	}
	d, err := NewTSVRefsDecoder(io.NopCloser(strings.NewReader(doc)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dict := rdf.NewDict()
	for i, w := range want {
		ids, err := d.ReadIDs(dict)
		if err != nil {
			t.Fatal(err)
		}
		if got := dict.Terms(ids, nil); !reflect.DeepEqual(got, w) {
			t.Errorf("ReadIDs row %d: %v, want %v", i, got, w)
		}
	}
}

// A bad back-reference fails its line with a sticky error that names the
// line, on both read paths, and the rows before it still decode. A
// reference in the header is a malformed variable.
func TestTSVRefsMalformed(t *testing.T) {
	for _, bad := range []string{
		"#2",                       // the table has entries 0 and 1
		"#1\t#9",                   // the second past the table
		"#x",                       // not a number
		"#1a",                      // trailing garbage
		"#",                        // empty
		"#-1",                      // sign
		"#99999999999999999999999", // would overflow
		"#3\t<http://c>",           // a text cell later on its own line
		"bad\t#9",                  // a bad text cell before a bad reference
	} {
		cells := strings.Count(bad, "\t") + 1
		header, first := "?x", "<http://a>"
		if cells == 2 {
			header, first = "?x\t?y", "<http://a>\t<http://b>"
		}
		doc := header + "\n" + first + "\n" + bad + "\n"
		d, err := NewTSVRefsDecoder(io.NopCloser(strings.NewReader(doc)))
		if err != nil {
			t.Fatal(err)
		}
		ids, err := NewTSVRefsDecoder(io.NopCloser(strings.NewReader(doc)))
		if err != nil {
			t.Fatal(err)
		}
		dict := rdf.NewDict()
		if _, err := d.Read(); err != nil {
			t.Fatalf("%q: first row: %v", doc, err)
		}
		if _, err := ids.ReadIDs(dict); err != nil {
			t.Fatalf("%q: first row ids: %v", doc, err)
		}
		row, err := d.Read()
		idRow, idErr := ids.ReadIDs(dict)
		if err == nil || row != nil || idErr == nil || idRow != nil {
			t.Errorf("%q: Read %v, %v; ReadIDs %v, %v; want errors and no row", bad, row, err, idRow, idErr)
			continue
		}
		if !strings.Contains(err.Error(), "solution 2") || err.Error() != idErr.Error() {
			t.Errorf("%q: errors %q and %q, want the same one naming solution 2", bad, err, idErr)
		}
		if _, again := d.Read(); again != err {
			t.Errorf("%q: error not sticky: %v then %v", bad, err, again)
		}
		d.Close()
		ids.Close()
	}
	if _, err := NewTSVRefsDecoder(io.NopCloser(strings.NewReader("#0\n"))); err == nil {
		t.Error("a back-reference in the header was accepted")
	}
}

// The two read paths keep different tables, so a response with
// back-references read through both fails instead of misreading.
func TestTSVRefsMixedReads(t *testing.T) {
	d, err := NewTSVRefsDecoder(io.NopCloser(strings.NewReader("?x\n<http://a>\n#0\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Read(); err != nil {
		t.Fatal(err)
	}
	if ids, err := d.ReadIDs(rdf.NewDict()); err == nil {
		t.Fatalf("ReadIDs after Read = %v, want an error", ids)
	}
}

// A table the pool made afresh, as after a GC emptied the pool, grows
// once, to the largest table a response used before, and not step by step
// through a large response: decoding a large response allocates no more
// than decoding a four-row one.
func TestTSVRefsTableGrowsOnce(t *testing.T) {
	dict := rdf.NewDict()
	allocs := func(res *Results) float64 {
		var doc bytes.Buffer
		if err := res.Write(&doc, FormatTSVRefs); err != nil {
			t.Fatal(err)
		}
		read := func() {
			d, err := NewTSVRefsDecoder(io.NopCloser(bytes.NewReader(doc.Bytes())))
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := d.ReadIDs(dict); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			d.Close()
		}
		read() // interns every term and records the table's size
		return testing.AllocsPerRun(20, func() {
			refTables.Get() // drop the pooled table
			read()
		})
	}
	large := lubmResult()
	small := &Results{Vars: large.Vars, Rows: large.Rows[:4]}
	// A race build's pool drops some tables on Put, which costs the next
	// Get one allocation now and then.
	if a, b := allocs(large), allocs(small); a > b+1 {
		t.Errorf("a %d-row response allocates %.1f times per decode, a %d-row one %.1f: the table regrew",
			len(large.Rows), a, len(small.Rows), b)
	}
}

// Property: with back-references the writer's term path (WriteRow) and id
// path (WriteIDs over a dictionary) write the same bytes, never more than
// plain TSV, and both read paths give the rows back, on results that
// repeat terms within and across rows.
func TestTSVRefsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20170514))
	for trial := 0; trial < 300; trial++ {
		pool := make([]rdf.Term, 1+rng.Intn(6))
		for i := range pool {
			pool[i] = randomTSVTerm(rng)
		}
		res := NewResults(nil)
		for i := rng.Intn(4); i > 0; i-- {
			res.Vars = append(res.Vars, "v"+string(rune('a'+len(res.Vars))))
		}
		for i := rng.Intn(40); i > 0; i-- {
			row := make([]rdf.Term, len(res.Vars))
			for j := range row {
				if rng.Intn(5) > 0 {
					row[j] = pool[rng.Intn(len(pool))]
				}
			}
			res.Rows = append(res.Rows, row)
		}
		var terms, plain strings.Builder
		if err := res.Write(&terms, FormatTSVRefs); err != nil {
			t.Fatalf("trial %d: Write: %v", trial, err)
		}
		if err := res.Write(&plain, FormatTSV); err != nil {
			t.Fatal(err)
		}
		dict := rdf.NewDict()
		var idDoc strings.Builder
		w := NewRowWriter(&idDoc, FormatTSVRefs, res.Vars).(IDRowWriter)
		for _, row := range res.Rows {
			ids := make([]uint32, len(row))
			dict.InternRow(row, ids)
			if err := w.WriteIDs(ids, dict); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if idDoc.String() != terms.String() || terms.Len() > plain.Len() {
			t.Fatalf("trial %d: WriteIDs %q\nWriteRow %q (%d bytes, plain %d)", trial, idDoc.String(), terms.String(), terms.Len(), plain.Len())
		}
		if got := readAllTSVRefs(t, terms.String()); !sameResults(got, res) {
			t.Fatalf("trial %d: round trip changed the results\nwrote %q\n got %v\nwant %v", trial, terms.String(), got.Rows, res.Rows)
		}
		checkIDPath(t, []byte(terms.String()), NewTSVRefsDecoder)
	}
}
