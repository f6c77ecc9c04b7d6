package eval

import (
	"fmt"
	"path/filepath"
	"testing"

	"lusail/internal/diskstore"
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

// benchDisk bulk-loads the same graph into a disk store behind a 1 MiB block
// cache, the size the benchmark's lubm_bulk_disk endpoints run with.
func benchDisk(b *testing.B, st *store.Store) *diskstore.Store {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.lds")
	if err := diskstore.BuildFromGraph(path, st, diskstore.BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	ds, err := diskstore.Open(path, diskstore.Options{CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ds.Close() })
	return ds
}

func BenchmarkBGPTriangleJoin(b *testing.B) {
	benchTriangle(b, benchUniversity(2000))
}

func BenchmarkBGPTriangleJoinDisk(b *testing.B) {
	benchTriangle(b, benchDisk(b, benchUniversity(2000)))
}

func benchTriangle(b *testing.B, st store.Graph) {
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
	benchCount(b, benchUniversity(2000))
}

func BenchmarkCountAggregateDisk(b *testing.B) {
	benchCount(b, benchDisk(b, benchUniversity(2000)))
}

func benchCount(b *testing.B, st store.Graph) {
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
