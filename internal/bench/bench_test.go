package bench

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"lusail/internal/eval"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// oracleFor evaluates a query centrally over the union of all datasets.
func oracleFor(t *testing.T, datasets []Dataset, query string) *sparql.Results {
	t.Helper()
	st := store.New()
	for _, ds := range datasets {
		st.AddAll(ds.Triples)
	}
	res, err := eval.New(st).QueryString(query)
	if err != nil {
		t.Fatalf("oracle for %s: %v", query, err)
	}
	res.Rows = sparql.DistinctRows(res.Rows)
	res.Sort()
	return res
}

// checkAllEngines runs the query on every system and compares to the
// oracle. Queries with LIMIT are compared on cardinality only (any subset
// is valid).
func checkAllEngines(t *testing.T, datasets []Dataset, q Query) {
	t.Helper()
	fed, err := NewFed(datasets, InProcess())
	if err != nil {
		t.Fatal(err)
	}
	want := oracleFor(t, datasets, q.Text)
	parsed := sparql.MustParse(q.Text)
	limited := parsed.Limit >= 0

	for _, kind := range []EngineKind{Lusail, LusailLADE, FedX, HiBISCuS, SPLENDID} {
		eng, err := fed.NewEngine(context.Background(), kind)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.QueryString(context.Background(), q.Text)
		if err != nil {
			t.Errorf("%s / %s: %v", kind, q.Name, err)
			continue
		}
		got.Rows = sparql.DistinctRows(got.Rows)
		got.Sort()
		if limited {
			if len(got.Rows) != len(want.Rows) {
				t.Errorf("%s / %s: %d rows, oracle %d (LIMIT)", kind, q.Name, len(got.Rows), len(want.Rows))
			}
			continue
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s / %s: %d rows, oracle %d", kind, q.Name, len(got.Rows), len(want.Rows))
		}
	}
}

func TestLUBMGeneratorShape(t *testing.T) {
	datasets := GenerateLUBM(DefaultLUBM(3))
	if len(datasets) != 3 {
		t.Fatalf("datasets = %d", len(datasets))
	}
	for _, ds := range datasets {
		if len(ds.Triples) < 50 {
			t.Errorf("%s has only %d triples", ds.Name, len(ds.Triples))
		}
	}
	// Interlinks: some degree triples must reference other universities.
	remote := 0
	for _, tr := range datasets[1].Triples {
		if tr.P.Value == ubNS+"undergraduateDegreeFrom" && tr.O.Value != "http://www.University1.edu" {
			remote++
		}
	}
	if remote == 0 {
		t.Error("no cross-university interlinks generated")
	}
}

func TestLUBMQueriesNonEmptyAndCorrect(t *testing.T) {
	datasets := GenerateLUBM(DefaultLUBM(2))
	for _, q := range LUBMQueries() {
		want := oracleFor(t, datasets, q.Text)
		if len(want.Rows) == 0 {
			t.Errorf("%s returns no results on generated data", q.Name)
			continue
		}
		checkAllEngines(t, datasets, q)
	}
}

func TestQFedGeneratorShape(t *testing.T) {
	datasets := GenerateQFed(DefaultQFed())
	if len(datasets) != 4 {
		t.Fatalf("datasets = %d", len(datasets))
	}
	var names []string
	for _, ds := range datasets {
		names = append(names, ds.Name)
	}
	sort.Strings(names)
	want := []string{"DailyMed", "Diseasome", "DrugBank", "Sider"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("names = %v", names)
	}
	// Big literals must actually be big.
	bigFound := false
	for _, tr := range datasets[0].Triples {
		if tr.P.Value == dailymedNS+"fullText" && len(tr.O.Value) >= 1024 {
			bigFound = true
		}
	}
	if !bigFound {
		t.Error("no big literals in DailyMed")
	}
}

func TestQFedQueriesNonEmptyAndCorrect(t *testing.T) {
	cfg := DefaultQFed()
	cfg.Drugs = 40
	cfg.Diseases = 20
	cfg.BigLiteralBytes = 256
	datasets := GenerateQFed(cfg)
	for _, q := range QFedQueries() {
		want := oracleFor(t, datasets, q.Text)
		if len(want.Rows) == 0 {
			t.Errorf("%s returns no results on generated data", q.Name)
			continue
		}
		checkAllEngines(t, datasets, q)
	}
}

func TestLRBGeneratorShape(t *testing.T) {
	datasets := GenerateLRB(DefaultLRB())
	if len(datasets) != 13 {
		t.Fatalf("datasets = %d", len(datasets))
	}
	sizes := map[string]int{}
	for _, ds := range datasets {
		sizes[ds.Name] = len(ds.Triples)
	}
	// Size ordering from Table 1: the TCGA results datasets dominate.
	if sizes["LinkedTCGA-M"] <= sizes["ChEBI"] {
		t.Errorf("LinkedTCGA-M (%d) should dwarf ChEBI (%d)", sizes["LinkedTCGA-M"], sizes["ChEBI"])
	}
	if sizes["SWDogFood"] >= sizes["GeoNames"] {
		t.Errorf("SWDogFood (%d) should be small vs GeoNames (%d)", sizes["SWDogFood"], sizes["GeoNames"])
	}
}

func TestLRBQueryCount(t *testing.T) {
	if n := len(LRBSimpleQueries()); n != 14 {
		t.Errorf("simple queries = %d, want 14", n)
	}
	if n := len(LRBComplexQueries()); n != 10 {
		t.Errorf("complex queries = %d, want 10", n)
	}
	if n := len(LRBLargeQueries()); n != 8 {
		t.Errorf("large queries = %d, want 8", n)
	}
}

func TestLRBQueriesNonEmpty(t *testing.T) {
	datasets := GenerateLRB(DefaultLRB())
	for _, q := range LRBQueries() {
		want := oracleFor(t, datasets, q.Text)
		if len(want.Rows) == 0 {
			t.Errorf("%s returns no results on generated data", q.Name)
		}
	}
}

// The full S/C/B × engine matrix is the heavyweight correctness test.
func TestLRBQueriesAllEnginesCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine matrix skipped in -short mode")
	}
	datasets := GenerateLRB(DefaultLRB())
	for _, q := range LRBQueries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			checkAllEngines(t, datasets, q)
		})
	}
}

func TestBio2RDFQueriesNonEmptyAndCorrect(t *testing.T) {
	datasets := GenerateBio2RDF(Bio2RDFConfig{Scale: 1})
	if len(datasets) != 5 {
		t.Fatalf("datasets = %d", len(datasets))
	}
	for _, q := range Bio2RDFQueries() {
		want := oracleFor(t, datasets, q.Text)
		if len(want.Rows) == 0 {
			t.Errorf("%s returns no results on generated data", q.Name)
			continue
		}
		checkAllEngines(t, datasets, q)
	}
}

func TestRunMeasuresAndTimesOut(t *testing.T) {
	datasets := GenerateLUBM(DefaultLUBM(2))
	fed, err := NewFed(datasets, InProcess())
	if err != nil {
		t.Fatal(err)
	}
	q := LUBMQueries()[1]
	res := fed.Run(context.Background(), Lusail, q.Text, RunOptions{Repeats: 3})
	if res.Err != nil {
		t.Fatalf("Run: %v", res.Err)
	}
	if res.Time <= 0 || res.Requests <= 0 || res.Results <= 0 {
		t.Errorf("result not measured: %+v", res)
	}

	// An absurd timeout forces TO, like the paper's one-hour cutoff.
	slow, err := NewFed(datasets, NetworkProfile{RTT: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r2 := slow.Run(context.Background(), FedX, q.Text, RunOptions{Timeout: 50 * time.Millisecond})
	if !r2.TimedOut {
		t.Errorf("expected timeout, got %+v", r2)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:  "test",
		Header: []string{"q", "time"},
		Rows:   [][]string{{"Q1", "1.0ms"}, {"Q2", "TO"}},
		Notes:  []string{"n"},
	}
	out := tb.String()
	for _, want := range []string{"== test ==", "Q1", "TO", "note: n"} {
		if !contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatDuration(1500 * time.Millisecond); got != "1.50s" {
		t.Errorf("FormatDuration = %q", got)
	}
	if got := FormatDuration(2500 * time.Microsecond); got != "2.5ms" {
		t.Errorf("FormatDuration = %q", got)
	}
	if got := FormatResult(Result{TimedOut: true}); got != "TO" {
		t.Errorf("FormatResult TO = %q", got)
	}
	if got := FormatResult(Result{Err: context.Canceled}); got != "ERR" {
		t.Errorf("FormatResult ERR = %q", got)
	}
}

func TestGeoProfileSlowerThanLocal(t *testing.T) {
	datasets := GenerateLUBM(DefaultLUBM(2))
	q := LUBMQueries()[1].Text

	local, err := NewFed(datasets, InProcess())
	if err != nil {
		t.Fatal(err)
	}
	geo, err := NewFed(datasets, GeoDistributed())
	if err != nil {
		t.Fatal(err)
	}
	rl := local.Run(context.Background(), Lusail, q, RunOptions{})
	rg := geo.Run(context.Background(), Lusail, q, RunOptions{})
	if rl.Err != nil || rg.Err != nil {
		t.Fatalf("errs: %v %v", rl.Err, rg.Err)
	}
	if rg.Time <= rl.Time {
		t.Errorf("geo (%v) should be slower than local (%v)", rg.Time, rl.Time)
	}
}

// HiBISCuS's authority-summary pruning must cut request counts relative to
// FedX on cross-domain joins (distinct URI authorities per dataset), the
// effect visible on the paper's LargeRDFBench runs.
func TestHiBISCuSPrunesRequests(t *testing.T) {
	datasets := GenerateLRB(DefaultLRB())
	fed, err := NewFed(datasets, InProcess())
	if err != nil {
		t.Fatal(err)
	}
	var q Query
	for _, cand := range LRBQueries() {
		if cand.Name == "S13" {
			q = cand
		}
	}
	rF := fed.Run(context.Background(), FedX, q.Text, RunOptions{})
	rH := fed.Run(context.Background(), HiBISCuS, q.Text, RunOptions{})
	if rF.Err != nil || rH.Err != nil {
		t.Fatalf("errs: %v / %v", rF.Err, rH.Err)
	}
	if rH.Requests >= rF.Requests {
		t.Errorf("HiBISCuS requests (%d) should be below FedX (%d)", rH.Requests, rF.Requests)
	}
	if rH.Results != rF.Results {
		t.Errorf("pruning changed results: %d vs %d", rH.Results, rF.Results)
	}
}

// Lusail's request count must grow far slower with endpoints than FedX's
// on same-schema federations (the scalability claim behind Figure 9).
func TestRequestScalingWithEndpoints(t *testing.T) {
	q := LUBMQueries()[1] // Q2 triangle
	reqs := map[EngineKind][]int64{}
	for _, n := range []int{2, 4} {
		fed, err := NewFed(GenerateLUBM(DefaultLUBM(n)), InProcess())
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []EngineKind{Lusail, FedX} {
			r := fed.Run(context.Background(), kind, q.Text, RunOptions{})
			if r.Err != nil {
				t.Fatalf("%s: %v", kind, r.Err)
			}
			reqs[kind] = append(reqs[kind], r.Requests)
		}
	}
	lusailGrowth := float64(reqs[Lusail][1]) / float64(reqs[Lusail][0])
	fedxGrowth := float64(reqs[FedX][1]) / float64(reqs[FedX][0])
	if fedxGrowth <= lusailGrowth {
		t.Errorf("FedX request growth (%.1fx) should exceed Lusail's (%.1fx); reqs=%v",
			fedxGrowth, lusailGrowth, reqs)
	}
}

// Generators must be deterministic per seed: experiments are reproducible.
func TestGeneratorsDeterministic(t *testing.T) {
	a := GenerateLUBM(DefaultLUBM(3))
	b := GenerateLUBM(DefaultLUBM(3))
	if !reflect.DeepEqual(a, b) {
		t.Error("LUBM generator not deterministic")
	}
	qa := GenerateQFed(DefaultQFed())
	qb := GenerateQFed(DefaultQFed())
	if !reflect.DeepEqual(qa, qb) {
		t.Error("QFed generator not deterministic")
	}
	la := GenerateLRB(DefaultLRB())
	lb := GenerateLRB(DefaultLRB())
	if !reflect.DeepEqual(la, lb) {
		t.Error("LRB generator not deterministic")
	}
	ba := GenerateBio2RDF(Bio2RDFConfig{Scale: 1})
	bb := GenerateBio2RDF(Bio2RDFConfig{Scale: 1})
	if !reflect.DeepEqual(ba, bb) {
		t.Error("Bio2RDF generator not deterministic")
	}
	// Different seeds produce different data.
	cfg := DefaultLUBM(3)
	cfg.Seed = 99
	c := GenerateLUBM(cfg)
	if reflect.DeepEqual(a, c) {
		t.Error("seed has no effect")
	}
}

// Scale must grow datasets roughly proportionally.
func TestScaleGrowsDatasets(t *testing.T) {
	small := GenerateLRB(LRBConfig{Scale: 1, Seed: 11})
	big := GenerateLRB(LRBConfig{Scale: 3, Seed: 11})
	totalSmall, totalBig := 0, 0
	for i := range small {
		totalSmall += len(small[i].Triples)
		totalBig += len(big[i].Triples)
	}
	if totalBig < 2*totalSmall {
		t.Errorf("scale 3 = %d triples vs scale 1 = %d", totalBig, totalSmall)
	}
}
