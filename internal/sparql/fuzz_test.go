package sparql_test

import (
	"reflect"
	"testing"

	"lusail/internal/bench"
	"lusail/internal/sparql"
)

// FuzzParseRoundTrip checks the Parse → String → Parse identity: any query
// the parser accepts must serialize to text the parser accepts again, and
// the reparsed AST (positions stripped) must be structurally identical to
// the first. A divergence here means the serializer loses information or
// the parser is whitespace-sensitive — either breaks canonical result-cache
// keys, which hash serialized canonical text.
func FuzzParseRoundTrip(f *testing.F) {
	for _, corpus := range [][]bench.Query{
		bench.LUBMQueries(),
		bench.Bio2RDFQueries(),
		bench.QFedQueries(),
		bench.LRBSimpleQueries(),
		bench.LRBComplexQueries(),
		bench.LRBLargeQueries(),
	} {
		for _, q := range corpus {
			f.Add(q.Text)
		}
	}
	f.Add("SELECT * WHERE { ?s ?p ?o . OPTIONAL { ?s <http://n> ?n } FILTER(?o > 3) }")
	f.Add("SELECT DISTINCT ?a WHERE { { ?a <http://p> ?b } UNION { ?a <http://q> \"x\"@en } } ORDER BY ?a LIMIT 5")

	f.Fuzz(func(t *testing.T, text string) {
		q1, err := sparql.Parse(text)
		if err != nil {
			return // rejected inputs are out of scope; crash-freedom is the check
		}
		out := q1.String()
		q2, err := sparql.Parse(out)
		if err != nil {
			t.Fatalf("serialized form does not reparse: %v\ninput: %q\nserialized: %q", err, text, out)
		}
		sparql.StripPositions(q1)
		sparql.StripPositions(q2)
		// String expands prefixed names to full IRIs, so the reparsed
		// query legitimately has no PREFIX table; everything else must match.
		q1.Prefixes, q2.Prefixes = nil, nil
		if !reflect.DeepEqual(q1, q2) {
			t.Fatalf("round-trip changed the AST\ninput: %q\nserialized: %q", text, out)
		}
		if again := q2.String(); again != out {
			t.Fatalf("serialization is not a fixpoint\nfirst:  %q\nsecond: %q", out, again)
		}
	})
}
