package op

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// joinInputs is a LUBM-shaped join: 8192 (student, advisor) probe rows
// against 2048 (advisor, course) build rows on ?p, every probe row matching
// one build row.
func joinInputs() (probe, build rel) {
	probe.vars, build.vars = []string{"s", "p"}, []string{"p", "c"}
	const dept = "http://www.Department0.University0.edu/"
	for i := range 2048 {
		build.rows = append(build.rows, []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("%sAssociateProfessor%d", dept, i)),
			rdf.NewIRI(fmt.Sprintf("%sGraduateCourse%d", dept, i%700)),
		})
	}
	for i := range 8192 {
		probe.rows = append(probe.rows, []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("%sGraduateStudent%d", dept, i)),
			rdf.NewIRI(fmt.Sprintf("%sAssociateProfessor%d", dept, i%2048)),
		})
	}
	return probe, build
}

// benchmarkJoin times the join over id rows interned once, draining it
// without decoding a term.
func benchmarkJoin(b *testing.B, spillBytes int64, join func(probe, build RowStream, dict *rdf.Dict, bud Budget) RowStream) {
	probe, build := joinInputs()
	dict := rdf.NewDict()
	probeIDs, buildIDs := InternRows(dict, probe.rows), InternRows(dict, build.rows)
	bud := Budget{SpillBytes: spillBytes}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		s := join(NewSlice(probe.vars, probeIDs), NewSlice(build.vars, buildIDs), dict, bud)
		n := 0
		for s.Next() {
			n++
		}
		if err := errors.Join(s.Err(), s.Close()); err != nil {
			b.Fatal(err)
		}
		if n != len(probe.rows) {
			b.Fatalf("%d rows, want %d", n, len(probe.rows))
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	benchmarkJoin(b, DefaultSpillBytes, func(probe, build RowStream, _ *rdf.Dict, bud Budget) RowStream {
		return HashJoin(context.Background(), probe, build, bud)
	})
}

// BenchmarkHashJoinLeft evaluates a condition over both sides on every
// combined row; it rejects a tenth of the extensions, whose probe rows come
// out zero-extended.
func BenchmarkHashJoinLeft(b *testing.B) {
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://ex/p> ?c FILTER(!STRENDS(STR(?s), "0") && ?p != ?c) }`)
	var cond []sparql.Expr
	for _, el := range q.Where.Elements {
		if f, ok := el.(sparql.Filter); ok {
			cond = append(cond, f.Expr)
		}
	}
	benchmarkJoin(b, DefaultSpillBytes, func(probe, build RowStream, dict *rdf.Dict, bud Budget) RowStream {
		return LeftJoin(context.Background(), probe, build, dict, cond, bud)
	})
}

// BenchmarkHashJoinSpill runs the inner join with a 64 KiB budget, so the
// build side spills after a few hundred rows and the join finishes as a
// sort-merge over the sorter's runs.
func BenchmarkHashJoinSpill(b *testing.B) {
	benchmarkJoin(b, 64<<10, func(probe, build RowStream, _ *rdf.Dict, bud Budget) RowStream {
		return HashJoin(context.Background(), probe, build, bud)
	})
}
