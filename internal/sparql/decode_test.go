package sparql

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"lusail/internal/rdf"
)

func decoderFor(t *testing.T, doc string) *JSONDecoder {
	t.Helper()
	d, err := NewJSONDecoder(io.NopCloser(strings.NewReader(doc)))
	if err != nil {
		t.Fatalf("NewJSONDecoder: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestJSONDecoderTermKinds(t *testing.T) {
	doc := `{"head":{"vars":["s","o"]},"results":{"bindings":[
		{"s":{"type":"uri","value":"http://ex.org/a"},
		 "o":{"type":"literal","value":"plain"}},
		{"s":{"type":"bnode","value":"b0"},
		 "o":{"type":"literal","value":"bonjour","xml:lang":"fr"}},
		{"o":{"type":"typed-literal","value":"42",
		      "datatype":"http://www.w3.org/2001/XMLSchema#integer"}}
	]}}`
	d := decoderFor(t, doc)
	if got := d.Vars(); len(got) != 2 || got[0] != "s" || got[1] != "o" {
		t.Fatalf("Vars() = %v", got)
	}

	row, err := d.Read()
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != rdf.NewIRI("http://ex.org/a") || row[1] != rdf.NewLiteral("plain") {
		t.Errorf("row 1 = %v", row)
	}

	row, err = d.Read()
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Kind != rdf.Blank {
		t.Errorf("row 2 subject kind = %v", row[0].Kind)
	}
	if row[1].Lang != "fr" {
		t.Errorf("row 2 object lang = %q", row[1].Lang)
	}

	row, err = d.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !row[0].IsZero() {
		t.Errorf("row 3 subject should be unbound, got %v", row[0])
	}
	if row[1].Datatype != "http://www.w3.org/2001/XMLSchema#integer" {
		t.Errorf("row 3 datatype = %q", row[1].Datatype)
	}

	if _, err := d.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("after last row: %v, want io.EOF", err)
	}
	if d.Rows() != 3 {
		t.Errorf("Rows() = %d", d.Rows())
	}
}

func TestJSONDecoderBoolean(t *testing.T) {
	d := decoderFor(t, `{"head":{},"boolean":true}`)
	if _, err := d.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("boolean document Read: %v, want io.EOF", err)
	}
	val, ok := d.Boolean()
	if !ok || !val {
		t.Fatalf("Boolean() = %v, %v", val, ok)
	}
}

func TestJSONDecoderEmptyAndTrailing(t *testing.T) {
	// Unknown head members, members after bindings, and an empty bindings
	// array are all legal per the W3C result format.
	d := decoderFor(t, `{"head":{"vars":["x"],"link":["http://ex.org/meta"]},
		"results":{"bindings":[],"ordered":true}}`)
	if _, err := d.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty bindings Read: %v, want io.EOF", err)
	}

	// A results member with extra keys before bindings.
	d2 := decoderFor(t, `{"head":{"vars":["x"]},
		"results":{"distinct":false,"bindings":[{"x":{"type":"literal","value":"1"}}]}}`)
	row, err := d2.Read()
	if err != nil || row[0] != rdf.NewLiteral("1") {
		t.Fatalf("Read = %v, %v", row, err)
	}
	if _, err := d2.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("after row: %v, want io.EOF", err)
	}
}

func TestJSONDecoderMalformed(t *testing.T) {
	// Truncated mid-bindings: the error must be an error, never a clean EOF
	// — a cut-off connection must not read as a complete result.
	d := decoderFor(t, `{"head":{"vars":["x"]},"results":{"bindings":[
		{"x":{"type":"literal","value":"1"}},`)
	if _, err := d.Read(); err != nil {
		t.Fatalf("first row: %v", err)
	}
	_, err := d.Read()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated document: %v, want a decode error", err)
	}
	// The error is sticky.
	if _, err2 := d.Read(); err2 == nil || errors.Is(err2, io.EOF) {
		t.Fatalf("sticky error: %v", err2)
	}
}

// TestJSONDecoderIncremental proves rows come off the wire before the
// document ends: the first row is decoded while the writer still holds the
// rest of the body.
func TestJSONDecoderIncremental(t *testing.T) {
	pr, pw := io.Pipe()
	release := make(chan struct{})
	go func() {
		io.WriteString(pw, `{"head":{"vars":["x"]},"results":{"bindings":[
			{"x":{"type":"literal","value":"first"}},`)
		<-release
		io.WriteString(pw, `{"x":{"type":"literal","value":"second"}}]}}`)
		pw.Close()
	}()
	d, err := NewJSONDecoder(pr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	row, err := d.Read()
	if err != nil {
		t.Fatalf("first row before body completed: %v", err)
	}
	if row[0] != rdf.NewLiteral("first") {
		t.Fatalf("row = %v", row)
	}
	close(release)
	if row, err = d.Read(); err != nil || row[0] != rdf.NewLiteral("second") {
		t.Fatalf("second row: %v, %v", row, err)
	}
	if _, err := d.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("end: %v, want io.EOF", err)
	}
}

func TestResultsReaderRoundTrip(t *testing.T) {
	res := NewResults([]string{"a", "b"})
	res.Rows = append(res.Rows,
		[]rdf.Term{rdf.NewIRI("http://ex.org/1"), rdf.NewLiteral("x")},
		[]rdf.Term{rdf.NewIRI("http://ex.org/2"), {}},
	)
	got, err := ReadAllRows(NewResultsReader(res))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Rows[1][0] != res.Rows[1][0] || !got.Rows[1][1].IsZero() {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Vars[0] != "a" || got.Vars[1] != "b" {
		t.Fatalf("vars = %v", got.Vars)
	}
}

// WriteJSON runs through the JSON RowWriter; its bytes are pinned to what the
// encoding/json marshalling of a whole Results produced before: key order,
// HTML-safe escapes, U+2028, omitted unbound cells, empty head.
func TestWriteJSONBytes(t *testing.T) {
	res := NewResults([]string{"s", "o", "n"})
	res.Rows = [][]rdf.Term{
		{rdf.NewIRI("http://ex.org/a?x=1&y=<2>"), rdf.NewLangLiteral("café \"quoted\"\n\ttab", "fr"), rdf.NewInteger(42)},
		{rdf.NewBlank("b0"), {}, rdf.NewTypedLiteral("2017-05-14", "http://www.w3.org/2001/XMLSchema#date")},
		{{}, rdf.NewLiteral("plain \\ back\u2028slash"), {}},
	}
	for _, tc := range []struct {
		res  *Results
		want string
	}{
		{res, `{"head":{"vars":["s","o","n"]},"results":{"bindings":[` +
			`{"n":{"type":"literal","value":"42","datatype":"http://www.w3.org/2001/XMLSchema#integer"},` +
			`"o":{"type":"literal","value":"café \"quoted\"\n\ttab","xml:lang":"fr"},` +
			`"s":{"type":"uri","value":"http://ex.org/a?x=1\u0026y=\u003c2\u003e"}},` +
			`{"n":{"type":"literal","value":"2017-05-14","datatype":"http://www.w3.org/2001/XMLSchema#date"},` +
			`"s":{"type":"bnode","value":"b0"}},` +
			`{"o":{"type":"literal","value":"plain \\ back\u2028slash"}}]}}`},
		{BoolResults(true), `{"head":{},"boolean":true}`},
		{NewResults(nil), `{"head":{},"results":{"bindings":[]}}`},
	} {
		var b bytes.Buffer
		if err := tc.res.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != tc.want {
			t.Errorf("WriteJSON =\n%s\nwant\n%s", b.String(), tc.want)
		}
		back, err := ParseResultsJSON(b.Bytes())
		if err != nil || back.IsBoolean != tc.res.IsBoolean || len(back.Rows) != len(tc.res.Rows) {
			t.Errorf("ParseResultsJSON = %+v, %v", back, err)
		}
	}
}

// checkReencodes is the fuzz oracle shared by both decoders: a document the
// decoder accepts must encode (in the same format) to one that decodes to
// the same results.
func checkReencodes(t *testing.T, doc []byte, decode func(io.ReadCloser) (RowReader, error), encode func(*Results, io.Writer) error) {
	rd, err := decode(io.NopCloser(bytes.NewReader(doc)))
	if err != nil {
		return
	}
	first, err := ReadAllRows(rd)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := encode(first, &buf); err != nil {
		t.Fatalf("accepted document does not re-encode: %v\ninput: %q", err, doc)
	}
	rd, err = decode(io.NopCloser(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatalf("re-encoded document rejected: %v\ninput: %q\nre-encoded: %q", err, doc, buf.Bytes())
	}
	second, err := ReadAllRows(rd)
	if err != nil {
		t.Fatalf("re-encoded document rejected: %v\ninput: %q\nre-encoded: %q", err, doc, buf.Bytes())
	}
	if !sameResults(first, second) {
		t.Fatalf("re-encoding changed the results\ninput: %q\nre-encoded: %q\nfirst:  %v %v\nsecond: %v %v",
			doc, buf.Bytes(), first.Vars, first.Rows, second.Vars, second.Rows)
	}
}

func FuzzTSVDecoder(f *testing.F) {
	for _, seed := range []string{
		"?s\t?o\n<http://ex.org/a>\t\"x\\ty\"@en\n_:b0\t\n",
		"$x\t$y\r\n5\ttrue\r\n-1.5e3\t\"caf\\u00E9\"^^<http://dt>\r\n",
		"\n\n\n",
		"?x\n<http://a/\\u0020b>\n\"\\U0001F600\"\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkReencodes(t, doc,
			func(rc io.ReadCloser) (RowReader, error) { return NewTSVDecoder(rc) },
			writeTSV)
		checkIDPath(t, doc, NewTSVDecoder)
	})
}

// FuzzTSVRefsDecoder is FuzzTSVDecoder for TSV with back-references: an
// accepted document re-encodes to the same rows, and both read paths agree
// on every row and on the first error, which is sticky.
func FuzzTSVRefsDecoder(f *testing.F) {
	for _, seed := range []string{
		"?s\t?o\n<http://ex.org/a>\t\"x\\ty\"@en\n_:b0\t\n",
		"$x\t$y\r\n5\ttrue\r\n-1.5e3\t\"caf\\u00E9\"^^<http://dt>\r\n",
		"\n\n\n",
		"?x\n<http://a/\\u0020b>\n\"\\U0001F600\"\n",
		"?x\t?y\n<http://a>\t#0\n#0\t<http://b>\n#2\t#1\n",
		"?x\t?y\n12\t12\n#1\t\n",
		"?x\n<http://a>\n#1\n",
		"?x\n<http://a>\n#\n",
		"?x\n<http://a>\n#0x\n",
		"?x\n<http://a>\n#99999999999999999999\n",
		"#0\n<http://a>\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkReencodes(t, doc,
			func(rc io.ReadCloser) (RowReader, error) { return NewTSVRefsDecoder(rc) },
			func(r *Results, w io.Writer) error { return r.Write(w, FormatTSVRefs) })
		checkIDPath(t, doc, NewTSVRefsDecoder)
		if d, err := NewTSVRefsDecoder(io.NopCloser(bytes.NewReader(doc))); err == nil {
			_, err := ReadAllRows(d)
			if _, again := d.Read(); err != nil && again != err {
				t.Fatalf("error not sticky: %v, then %v\ninput: %q", err, again, doc)
			}
		}
	})
}

// checkIDPath decodes a TSV document twice, through Read and through
// ReadIDs into a fresh dictionary (twice over, so the second pass hits
// every cell), and requires the ids to decode back to exactly Read's rows
// and the same error.
func checkIDPath(t *testing.T, doc []byte, decoder func(io.ReadCloser) (*TSVDecoder, error)) {
	open := func() *TSVDecoder {
		d, err := decoder(io.NopCloser(bytes.NewReader(doc)))
		if err != nil {
			return nil
		}
		return d
	}
	terms := open()
	if terms == nil {
		return
	}
	dict := rdf.NewDict()
	for pass := range 2 {
		ids := open()
		for row := 0; ; row++ {
			want, werr := terms.Read()
			got, gerr := ids.ReadIDs(dict)
			if fmt.Sprint(werr) != fmt.Sprint(gerr) {
				t.Fatalf("pass %d row %d: Read error %v, ReadIDs error %v\ninput: %q", pass, row, werr, gerr, doc)
			}
			if werr != nil {
				break
			}
			if decoded := dict.Terms(got, nil); !reflect.DeepEqual(decoded, want) && len(want)+len(decoded) > 0 {
				t.Fatalf("pass %d row %d: ids decode to %v, Read gives %v\ninput: %q", pass, row, decoded, want, doc)
			}
		}
		terms = open()
	}
}

func FuzzJSONDecoder(f *testing.F) {
	for _, seed := range []string{
		`{"head":{"vars":["s","o"]},"results":{"bindings":[{"s":{"type":"uri","value":"http://ex.org/a"},"o":{"type":"literal","value":"x","xml:lang":"en"}},{"s":{"type":"bnode","value":"b0"}}]}}`,
		`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"typed-literal","value":"5","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}`,
		`{"head":{},"boolean":true}`,
		`{"head":{"vars":["x"]},"results":{"distinct":false,"bindings":[]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkReencodes(t, doc,
			func(rc io.ReadCloser) (RowReader, error) { return NewJSONDecoder(rc) },
			(*Results).WriteJSON)
	})
}

func FuzzXMLResults(f *testing.F) {
	for _, seed := range []string{
		xmlOpen + `<head><variable name="s"></variable><variable name="o"></variable></head><results><result><binding name="s"><uri>http://ex.org/a</uri></binding><binding name="o"><literal xml:lang="en">x &amp; &lt;y&gt;</literal></binding></result><result><binding name="s"><bnode>b0</bnode></binding></result></results></sparql>`,
		xmlOpen + `<head><variable name="x"></variable></head><results><result><binding name="x"><literal datatype="http://www.w3.org/2001/XMLSchema#integer">5</literal></binding></result></results></sparql>`,
		xmlOpen + `<head></head><boolean>true</boolean></sparql>`,
		`<sparql xmlns="http://www.w3.org/2005/sparql-results#"><head><variable name="x"/></head><results/></sparql>`,
		xmlOpen + `<head><variable name="t"></variable></head><results><result><binding name="t"><literal>a&#x9;b&#xD;&#xA;c</literal></binding></result></results></sparql>`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkReencodes(t, doc,
			func(rc io.ReadCloser) (RowReader, error) {
				data, err := io.ReadAll(rc)
				if err != nil {
					return nil, err
				}
				res, err := ParseResultsXML(data)
				if err != nil {
					return nil, err
				}
				return NewResultsReader(res), nil
			},
			func(res *Results, w io.Writer) error { return res.Write(w, FormatXML) })
	})
}
