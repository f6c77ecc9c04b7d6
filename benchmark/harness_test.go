package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"lusail/internal/bench"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// The harness starts endpoints by re-executing its own binary; under "go
// test" that binary is the test binary, so it must know the -serve mode.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(sorted, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	med, spread := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if med != 5.5 || spread != (8.25-2.75)/5.5 {
		t.Errorf("quartileSpread = %v, %v; want 5.5, 1", med, spread)
	}
}

func TestIntervalUnionAndSelfTime(t *testing.T) {
	if got := unionNs([][2]int64{{10, 20}, {15, 30}, {40, 50}, {41, 42}, {50, 60}}); got != 40 {
		t.Errorf("union = %d, want 40", got)
	}
	if got := unionNs(nil); got != 0 {
		t.Errorf("union of nothing = %d", got)
	}
	// Children overlapping each other and sticking out of the parent.
	if got := selfNs([2]int64{100, 200}, [][2]int64{{90, 120}, {110, 130}, {190, 250}, {300, 400}}); got != 60 {
		t.Errorf("self = %d, want 60", got)
	}
}

// The classifier reads the engine's own spelling of its requests, so the
// cases go through the parser's printer.
func TestClassify(t *testing.T) {
	printed := func(q string) string {
		parsed, err := sparql.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return parsed.String()
	}
	for _, c := range []struct{ query, want string }{
		{printed(`ASK { ?s <http://p> ?o }`), kindAsk},
		{printed(`ASK { ?s <http://p> ?o . VALUES (?s) { (<http://a>) } }`), kindAsk},
		{printed(`SELECT (COUNT(*) AS ?lusail_c) WHERE { ?s <http://p> ?o }`), kindCount},
		{printed(`SELECT ?v WHERE { ?v <http://p> ?o FILTER NOT EXISTS { SELECT ?v WHERE { ?v <http://q> ?x } } } LIMIT 1`), kindCheck},
		{printed(`SELECT ?s ?o WHERE { ?s <http://p> ?o . VALUES (?s) { (<http://a>) (<http://b>) } }`), kindBoundJoin},
		{printed(`SELECT ?s ?o WHERE { ?s <http://p> ?o }`), kindScan},
	} {
		if got := classify(c.query); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.query, got, c.want)
		}
	}
}

func TestDigest(t *testing.T) {
	a, b, c := rdf.NewIRI("http://a"), rdf.NewIRI("http://b"), rdf.NewLiteral("c")
	want := oracleAnswer{limit: -1}
	for _, row := range [][]rdf.Term{{a, b}, {b, c}, {b, c}} {
		want.exact.add(rowHash([]string{"x", "y"}, row))
	}
	check := func(ans *oracleAnswer, vars []string, rows [][]rdf.Term) error {
		chk := ans.newChecker()
		for _, row := range rows {
			chk.add(vars, row)
		}
		return chk.err()
	}
	// Another row order and another column order are the same answer.
	if err := check(&want, []string{"y", "x"}, [][]rdf.Term{{c, b}, {b, a}, {c, b}}); err != nil {
		t.Errorf("reordered answer rejected: %v", err)
	}
	// It is a multiset: a lost duplicate and a swapped column are not.
	if check(&want, []string{"x", "y"}, [][]rdf.Term{{a, b}, {b, c}}) == nil {
		t.Error("answer missing a duplicate row accepted")
	}
	if check(&want, []string{"x", "y"}, [][]rdf.Term{{b, a}, {b, c}, {b, c}}) == nil {
		t.Error("answer with swapped columns accepted")
	}

	// LIMIT: any limit-sized part of the unlimited answer, nothing else.
	limited := oracleAnswer{exact: want.exact, limit: 2, superset: map[uint64]int{
		rowHash([]string{"x", "y"}, []rdf.Term{a, b}): 1,
		rowHash([]string{"x", "y"}, []rdf.Term{b, c}): 2,
	}}
	if err := check(&limited, []string{"x", "y"}, [][]rdf.Term{{b, c}, {b, c}}); err != nil {
		t.Errorf("valid subset rejected: %v", err)
	}
	if check(&limited, []string{"x", "y"}, [][]rdf.Term{{a, b}, {a, b}}) == nil {
		t.Error("subset repeating a row more often than the answer accepted")
	}
	if check(&limited, []string{"x", "y"}, [][]rdf.Term{{a, b}}) == nil {
		t.Error("subset shorter than the limit accepted")
	}
}

func TestSpellingsShareCanonicalKey(t *testing.T) {
	spec := workloadByName("service_zipf").data(1, false)
	queries := workloadByName("service_zipf").queries(spec)
	if len(queries) != serviceShapeCount {
		t.Fatalf("service_zipf has %d shapes, want %d", len(queries), serviceShapeCount)
	}
	if err := checkSpellings(queries); err != nil {
		t.Fatal(err)
	}
	if q := queries[3]; q.spellings[0] == q.spellings[1] || q.spellings[1] == q.spellings[2] {
		t.Errorf("spellings of %s are not distinct texts", q.name)
	}
}

// lubmBase keeps Q1-Q4 as data, to render the spellings from; they must
// stay the queries of internal/bench. ("wide" is not exported there.)
func TestLUBMBaseMatchesBench(t *testing.T) {
	base := lubmBase()
	for i, q := range bench.LUBMQueries() {
		want, err := sparql.Parse(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sparql.Parse(base[i].text(0))
		if err != nil {
			t.Fatal(err)
		}
		if base[i].name != q.Name || got.String() != want.String() {
			t.Errorf("lubmBase()[%d] is\n%s\ninternal/bench has %s:\n%s", i, got, q.Name, want)
		}
	}
}

func TestZipfMix(t *testing.T) {
	mix := zipfMix(serviceShapeCount, 1.1, 800)
	counts := map[int]int{}
	for _, k := range mix {
		counts[k]++
	}
	// The sum of (1+k)^-1.1 over 192 ranks is 4.675: rank 0 expects 171.1 of 800.
	if len(mix) != 800 || counts[0] != 171 || counts[1] < counts[2] || len(counts) <= 128 {
		t.Errorf("zipfMix: %d requests, %d of rank 0, %d of rank 1, %d of rank 2, %d distinct ranks",
			len(mix), counts[0], counts[1], counts[2], len(counts))
	}
}

// TestManifestMatchesOutput holds BENCHMARK.json, the metric tables and the
// program's output together: the file is what -print-manifest prints, and a
// quick run of every workload, untraced and traced, prints exactly the
// declared metrics and fails no operation.
func TestManifestMatchesOutput(t *testing.T) {
	// No -tmp: each run makes its temp dir in TMPDIR, points TMPDIR at it
	// for its children, and must put TMPDIR back for the next run.
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var printed bytes.Buffer
	if err := printManifest(&printed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, printed.Bytes()) {
		t.Fatal("BENCHMARK.json differs from `benchmark -print-manifest`; regenerate it")
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(file, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		wl := workloadByName(w.Name)
		if wl == nil || wl != workloads[i] {
			t.Fatalf("manifest workload %q is not the program's workload %d", w.Name, i)
		}
		for _, traced := range []bool{false, true} {
			declared := manifest.EndToEnd
			if traced {
				declared = manifest.PerLayer
			}
			var log bytes.Buffer
			res, err := runOnce(context.Background(), runConfig{
				wl: wl, seed: 7, seconds: 0.3, traced: traced, quick: true, log: &log,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, log.String())
			}
			if got := os.Getenv("TMPDIR"); got != tmp {
				t.Fatalf("%s traced=%v left TMPDIR=%s behind", w.Name, traced, got)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d\n%s", w.Name, traced, res.Attempted, res.Failed, log.String())
			}
			printResult(&log, wl, traced, res)
			lines := strings.Split(strings.TrimSpace(log.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s traced=%v: last line is not a result: %v", w.Name, traced, err)
			}
			var got, want []string
			for name, v := range last.Metrics {
				got = append(got, name+" "+v.Unit)
			}
			for _, d := range declared {
				want = append(want, d.Name+" "+d.Unit)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s traced=%v: printed metrics\n%s\ndeclared metrics\n%s", w.Name, traced, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if !traced {
				for name, v := range last.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want above 0", w.Name, name, v.Value)
					}
				}
			}
		}
	}
}
