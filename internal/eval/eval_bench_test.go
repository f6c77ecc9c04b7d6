package eval

import (
	"fmt"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/store"
)

func benchUniversity(students int) *store.Store {
	st := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	for i := 0; i < students; i++ {
		stu := iri(fmt.Sprintf("s%d", i))
		prof := iri(fmt.Sprintf("p%d", i%20))
		course := iri(fmt.Sprintf("c%d", i%20))
		st.AddAll([]rdf.Triple{
			{S: stu, P: typ, O: iri("Student")},
			{S: stu, P: iri("advisor"), O: prof},
			{S: stu, P: iri("takesCourse"), O: course},
			{S: prof, P: iri("teacherOf"), O: course},
		})
	}
	return st
}

func BenchmarkBGPTriangleJoin(b *testing.B) {
	st := benchUniversity(2000)
	e := New(st)
	q := `SELECT ?s ?p ?c WHERE {
		?s <http://ex/advisor> ?p .
		?p <http://ex/teacherOf> ?c .
		?s <http://ex/takesCourse> ?c .
	}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.QueryString(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkAsk(b *testing.B) {
	st := benchUniversity(2000)
	e := New(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryString(`ASK { ?s <http://ex/advisor> ?p }`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountAggregate(b *testing.B) {
	st := benchUniversity(2000)
	e := New(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryString(`SELECT (COUNT(*) AS ?c) WHERE { ?s <http://ex/advisor> ?p }`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterNotExists(b *testing.B) {
	st := benchUniversity(1000)
	e := New(st)
	q := `SELECT ?p WHERE {
		?s <http://ex/advisor> ?p .
		FILTER NOT EXISTS { SELECT ?p WHERE { ?p <http://ex/teacherOf> ?c } }
	} LIMIT 1`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryString(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistinctOrderBy(b *testing.B) {
	st := benchUniversity(2000)
	e := New(st)
	q := `SELECT DISTINCT ?p ?c WHERE {
		?s <http://ex/advisor> ?p .
		?s <http://ex/takesCourse> ?c .
	} ORDER BY DESC(?p) ?c`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.QueryString(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 20 {
			b.Fatalf("rows = %d", res.Len())
		}
	}
}
