package sparql

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lusail/internal/rdf"
)

var updateWriterGoldens = flag.Bool("update", false, "rewrite testdata/writers from the current writers")

// writerFixtures are the result sets the writer goldens cover: every term
// kind, unbound cells, cells holding the characters each format escapes
// (comma, quote, newline, tab, markup), an empty result and both booleans.
func writerFixtures() map[string]*Results {
	sel := NewResults([]string{"s", "label", "n", "note"})
	sel.Rows = [][]rdf.Term{
		{rdf.NewIRI("http://example.org/a?x=1&y=2"), rdf.NewLangLiteral("hallo", "de"), rdf.NewTypedLiteral("7", rdf.XSDInteger), rdf.NewLiteral("v,with \"quote\"\nand newline")},
		{rdf.NewBlank("b0"), rdf.NewTypedLiteral("2.5", "http://www.w3.org/2001/XMLSchema#decimal"), rdf.NewTypedLiteral("2017-05-14", "http://www.w3.org/2001/XMLSchema#date"), rdf.Term{}},
		{rdf.Term{}, rdf.NewLiteral(" leading space\tand tab"), rdf.NewTypedLiteral("true", rdf.XSDBoolean), rdf.NewLiteral("a<b & c>d 'q'")},
		{rdf.Term{}, rdf.Term{}, rdf.Term{}, rdf.Term{}},
	}
	return map[string]*Results{
		"select":    sel,
		"empty":     NewResults([]string{"x", "y"}),
		"ask-true":  BoolResults(true),
		"ask-false": BoolResults(false),
	}
}

var writerExts = map[Format]string{FormatJSON: "json", FormatXML: "xml", FormatCSV: "csv", FormatTSV: "tsv"}

// TestWriterGoldens pins every writer's bytes for every fixture.
func TestWriterGoldens(t *testing.T) {
	for name, res := range writerFixtures() {
		for f, ext := range writerExts {
			var b bytes.Buffer
			if err := res.Write(&b, f); err != nil {
				t.Fatalf("%s.%s: %v", name, ext, err)
			}
			path := filepath.Join("testdata", "writers", name+"."+ext)
			if *updateWriterGoldens {
				if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Errorf("%s.%s:\n got %q\nwant %q", name, ext, b.Bytes(), want)
			}
		}
	}
}

// Every writer holds its document until the first Flush, so a server that
// fails before the first row can still answer with an error status, and a
// document flushed row by row is the document Results.Write writes.
func TestRowWritersHoldHeadUntilFlush(t *testing.T) {
	sel := writerFixtures()["select"]
	for f, ext := range writerExts {
		var b bytes.Buffer
		s := NewRowWriter(&b, f, sel.Vars)
		for _, row := range sel.Rows {
			if err := s.WriteRow(row); err != nil {
				t.Fatalf("%s: %v", ext, err)
			}
			if b.Len() != 0 {
				t.Fatalf("%s: %q reached the writer before Flush", ext, b.String())
			}
			if err := s.Flush(); err != nil || b.Len() == 0 {
				t.Fatalf("%s: Flush wrote %d bytes, %v", ext, b.Len(), err)
			}
			b.Reset()
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: %v", ext, err)
		}

		var streamed, whole bytes.Buffer
		s = NewRowWriter(&streamed, f, sel.Vars)
		for _, row := range sel.Rows {
			s.WriteRow(row)
			s.Flush()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sel.Write(&whole, f); err != nil || !bytes.Equal(streamed.Bytes(), whole.Bytes()) {
			t.Errorf("%s: flushed row by row %q, written whole %q (%v)", ext, streamed.Bytes(), whole.Bytes(), err)
		}

		b.Reset()
		bw := NewBoolWriter(&b, f)
		bw.WriteRow(nil)
		if err := bw.Flush(); err != nil || b.Len() != 0 {
			t.Errorf("%s: the boolean writer wrote %q before Close (%v)", ext, b.String(), err)
		}
	}
}
