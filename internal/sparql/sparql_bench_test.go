package sparql

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"lusail/internal/rdf"
)

const benchQuery = `
	PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
	PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
	SELECT ?S ?P ?U ?A WHERE {
		?S ub:advisor ?P .
		?S rdf:type ub:GraduateStudent .
		?P ub:teacherOf ?C .
		?S ub:takesCourse ?C .
		?P ub:PhDDegreeFrom ?U .
		?U ub:address ?A .
		FILTER(STR(?A) != "nowhere" && ?S != ?P)
		OPTIONAL { ?U ub:name ?N }
	} ORDER BY ?S LIMIT 100`

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// checkBatch renders a planning batch as an endpoint receives it: COUNT
// cells for source selection, then BIND(EXISTS { … }) cells of check
// queries, over LargeRDFBench-style IRIs.
func checkBatch(cells int) string {
	q := NewSelect()
	tp := func(s, p, o string) TriplePattern {
		return TriplePattern{S: Var(s), P: IRI("http://tcga.deri.ie/schema/" + p), O: Var(o)}
	}
	for k := 0; k < 2*cells; k++ {
		v := fmt.Sprintf("lusail_a%d", k)
		q.Projection = append(q.Projection, Projection{Var: v})
		pred := fmt.Sprintf("predicate_%d", k%cells)
		if k < cells {
			q.Where.Elements = append(q.Where.Elements, SubSelect{Query: NewCount(v, tp("s", pred, "o"))})
			continue
		}
		inner := NewSelect("e")
		inner.Where.Elements = append(inner.Where.Elements, tp("e", pred+"_inner", "o_chko"))
		q.Where.Elements = append(q.Where.Elements, Bind{Var: v, Expr: ExprExists{Group: &GroupPattern{Elements: []Element{
			tp("e", pred, "p"),
			Filter{Expr: ExprExists{Not: true, Group: &GroupPattern{Elements: []Element{SubSelect{Query: inner}}}}},
		}}}})
	}
	return q.String()
}

func BenchmarkParseCheckBatch(b *testing.B) {
	text := checkBatch(12)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLexCheckBatch(b *testing.B) {
	text := checkBatch(12)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lex(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	q := MustParse(benchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.String()
	}
}

func BenchmarkResultsJSONRoundTrip(b *testing.B) {
	res := NewResults([]string{"a", "b"})
	for i := 0; i < 200; i++ {
		res.Rows = append(res.Rows, []rdf.Term{
			rdf.NewIRI("http://example.org/entity/very/long/path"),
			rdf.NewLangLiteral("some literal value", "en"),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := res.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ParseResultsJSON(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// lubmResult is one LUBM-shaped subquery answer: 8192 rows of three IRIs
// (student, advisor, course), the shape the bulk workloads ship from each
// endpoint.
func lubmResult() *Results {
	res := NewResults([]string{"s", "p", "c"})
	for i := 0; i < 8192; i++ {
		dept := fmt.Sprintf("http://www.Department%d.University%d.edu/", i%15, i%4)
		res.Rows = append(res.Rows, []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("%sGraduateStudent%d", dept, i)),
			rdf.NewIRI(fmt.Sprintf("%sAssociateProfessor%d", dept, i%11)),
			rdf.NewIRI(fmt.Sprintf("%sGraduateCourse%d", dept, i%60)),
		})
	}
	return res
}

// benchmarkDecode pulls every row of doc through a fresh decoder per
// iteration, as the engine's scans do.
func benchmarkDecode(b *testing.B, write func(*Results, io.Writer) error, decode func(io.ReadCloser) (RowReader, error)) {
	var doc bytes.Buffer
	if err := write(lubmResult(), &doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := decode(io.NopCloser(bytes.NewReader(doc.Bytes())))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := rd.Read(); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		rd.Close()
	}
}

func BenchmarkDecodeTSV(b *testing.B) {
	benchmarkDecode(b, writeTSV, func(rc io.ReadCloser) (RowReader, error) { return NewTSVDecoder(rc) })
}

func BenchmarkDecodeJSON(b *testing.B) {
	benchmarkDecode(b, (*Results).WriteJSON, func(rc io.ReadCloser) (RowReader, error) { return NewJSONDecoder(rc) })
}

func BenchmarkWriteTSV(b *testing.B) {
	res := lubmResult()
	var out bytes.Buffer
	if err := res.Write(&out, FormatTSV); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.Write(io.Discard, FormatTSV); err != nil {
			b.Fatal(err)
		}
	}
}

// tsvForms are the two TSV forms the layer benchmarks compare.
var tsvForms = []struct {
	name   string
	format Format
	decode func(io.ReadCloser) (*TSVDecoder, error)
}{
	{"plain", FormatTSV, NewTSVDecoder},
	{"refs", FormatTSVRefs, NewTSVRefsDecoder},
}

// BenchmarkTSVDecode decodes lubmResult, whose advisor and course cells
// repeat, through the engine's id read path into a warm dictionary, in
// each TSV form.
func BenchmarkTSVDecode(b *testing.B) {
	res := lubmResult()
	for _, form := range tsvForms {
		b.Run(form.name, func(b *testing.B) {
			var doc bytes.Buffer
			if err := res.Write(&doc, form.format); err != nil {
				b.Fatal(err)
			}
			dict := rdf.NewDict()
			read := func() {
				rd, err := form.decode(io.NopCloser(bytes.NewReader(doc.Bytes())))
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := rd.ReadIDs(dict); errors.Is(err, io.EOF) {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				rd.Close()
			}
			read()
			b.SetBytes(int64(doc.Len()))
			perRow(b, len(res.Rows), read)
		})
	}
}

// BenchmarkTSVWrite writes lubmResult from id rows, as an endpoint
// writes its evaluator's rows, in each TSV form.
func BenchmarkTSVWrite(b *testing.B) {
	res := lubmResult()
	dict := rdf.NewDict()
	rows := make([][]uint32, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = make([]uint32, len(row))
		dict.InternRow(row, rows[i])
	}
	for _, form := range tsvForms {
		b.Run(form.name, func(b *testing.B) {
			var out countingWriter
			write := func() {
				w := NewRowWriter(&out, form.format, res.Vars).(IDRowWriter)
				for _, row := range rows {
					if err := w.WriteIDs(row, dict); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			write()
			b.SetBytes(int64(out))
			perRow(b, len(rows), write)
		})
	}
}

// countingWriter discards what it is written and counts the bytes.
type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// perRow runs body b.N times and reports ns/row and allocs/row, body
// handling rows rows a run.
func perRow(b *testing.B, rows int, body func()) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		body()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/row")
}
