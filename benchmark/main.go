// Command benchmark is the repository's benchmark: four federated workloads
// whose endpoints are child processes of this binary, end-to-end metrics
// from an untraced phase, per-layer metrics from a traced one, and an
// oracle that checks every answer. BENCHMARK.json at the root of the
// repository declares what it prints; README.md explains the method.
//
//	benchmark -workload lrb_cold_wan -seed 1 -seconds 15 -trace 0   one run, result as the last line
//	benchmark -seed 1                                               every workload, untraced then traced
//	benchmark -selfcheck                                            two sets of runs, spread and drift against the bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// defaultSeed is the seed of a run that names none.
const defaultSeed = 20170514

// metricDef declares one metric: BENCHMARK.json is printed from these
// tables and a test holds the file, the tables and the output together.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd are the metrics of the untraced phase, the same on every
// workload. bound is the share of the parent's median by which a later
// change may worsen the metric. BENCHMARK.json has room for one bound per
// metric, so it serves all four workloads and the noisiest sets it, at three
// times the quartile spread seen over ten seeds. Whatever is a time (wall or
// CPU) repeats only to within 7-10% on the 2-core sandbox, run to run and
// seed to seed alike, so those bounds are the largest allowed. With one
// client requests_per_query is the same number on every run (-selfcheck
// insists) and wire and alloc repeat to 0.1% and 0.6%; their bounds come from
// service_zipf, where the order of the requests and the race of the two
// clients decide how many queries miss the caches (1.5-1.8%).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_ms_p50", "ms", "lower", 0.25},
	{"query_ms_p90", "ms", "lower", 0.25},
	{"first_row_ms_p50", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"requests_per_query", "count", "lower", 0.05},
	{"wire_kib_per_query", "KiB", "lower", 0.05},
	{"engine_cpu_ms_per_query", "ms", "lower", 0.25},
	{"engine_alloc_mib_per_query", "MiB", "lower", 0.06},
	{"endpoint_cpu_ms_per_query", "ms", "lower", 0.25},
}

// perLayer are the metrics of the traced phase, named after the module
// they measure. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{name: "sparql.parse_us_per_query", unit: "us", better: "lower"},
	{name: "sparql.decode_mib_per_s", unit: "MiB/s", better: "higher"},
	{name: "sparql.decode_krows_per_s", unit: "1/s", better: "higher"},
	{name: "sparql.encode_mib_per_s", unit: "MiB/s", better: "higher"},
	{name: "sema.vet_us_per_query", unit: "us", better: "lower"},
	{name: "sema.rewrite_us_per_query", unit: "us", better: "lower"},
	{name: "sema.key_us_per_query", unit: "us", better: "lower"},
	{name: "qplan.normalize_us_per_query", unit: "us", better: "lower"},
	{name: "federation.asks_per_query", unit: "count", better: "lower"},
	{name: "federation.source_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "federation.select_ms_per_query", unit: "ms", better: "lower"},
	{name: "catalog.build_ms", unit: "ms", better: "lower"},
	{name: "catalog.source_hits_per_query", unit: "count", better: "higher"},
	{name: "catalog.card_hits_per_query", unit: "count", better: "higher"},
	{name: "core.plan_ms_per_query", unit: "ms", better: "lower"},
	{name: "core.analysis_ms_per_query", unit: "ms", better: "lower"},
	{name: "core.count_probes_per_query", unit: "count", better: "lower"},
	{name: "core.checks_per_query", unit: "count", better: "lower"},
	{name: "core.check_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.subqueries_per_query", unit: "count", better: "lower"},
	{name: "core.delayed_per_query", unit: "count", better: "lower"},
	{name: "core.exec_ms_per_query", unit: "ms", better: "lower"},
	{name: "core.exec_self_ms_per_query", unit: "ms", better: "lower"},
	{name: "core.scan_requests_per_query", unit: "count", better: "lower"},
	{name: "core.boundjoin_requests_per_query", unit: "count", better: "lower"},
	{name: "core.boundjoin_values_rows_per_request", unit: "count", better: "higher"},
	{name: "core.op.scan_ms", unit: "ms", better: "lower"},
	{name: "core.op.hash_join_ms", unit: "ms", better: "lower"},
	{name: "core.op.bound_join_ms", unit: "ms", better: "lower"},
	{name: "core.op.left_join_ms", unit: "ms", better: "lower"},
	{name: "core.spilled_joins_per_query", unit: "count", better: "lower"},
	{name: "core.rows_in_per_row_out", unit: "ratio", better: "lower"},
	{name: "core.peak_live_heap_mib", unit: "MiB", better: "lower"},
	{name: "erh.wait_ms_per_query", unit: "ms", better: "lower"},
	{name: "erh.inflight_max", unit: "count", better: "higher"},
	{name: "client.request_ms_p50", unit: "ms", better: "lower"},
	{name: "client.request_ms_p90", unit: "ms", better: "lower"},
	{name: "client.head_ms_p50", unit: "ms", better: "lower"},
	{name: "client.wait_ms_per_query", unit: "ms", better: "lower"},
	{name: "client.blocked_ms_per_query", unit: "ms", better: "lower"},
	{name: "client.blocked_share_of_query", unit: "ratio", better: "lower"},
	{name: "client.rows_per_query", unit: "count", better: "lower"},
	{name: "client.conns_opened", unit: "count", better: "lower"},
	{name: "client.errors_per_query", unit: "count", better: "lower"},
	{name: "endpoint.handler_ms_per_request", unit: "ms", better: "lower"},
	{name: "endpoint.overhead_ms_per_request", unit: "ms", better: "lower"},
	{name: "eval.ms_per_request", unit: "ms", better: "lower"},
	{name: "eval.krows_per_s", unit: "1/s", better: "higher"},
	{name: "store.match_calls_per_request", unit: "count", better: "lower"},
	{name: "store.match_us_per_call", unit: "us", better: "lower"},
	{name: "store.triples_scanned_per_row", unit: "ratio", better: "lower"},
	{name: "diskstore.load_s", unit: "s", better: "lower"},
	{name: "diskstore.load_ktriples_per_s", unit: "1/s", better: "higher"},
	{name: "diskstore.bytes_per_triple", unit: "B", better: "lower"},
	{name: "diskstore.open_ms", unit: "ms", better: "lower"},
	{name: "diskstore.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "diskstore.cache_misses_per_request", unit: "count", better: "lower"},
	{name: "diskstore.match_us_hit", unit: "us", better: "lower"},
	{name: "diskstore.match_us_miss", unit: "us", better: "lower"},
	{name: "rdf.ntriples_ktriples_per_s", unit: "1/s", better: "higher"},
	{name: "server.result_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.plan_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.result_hit_ms_p50", unit: "ms", better: "lower"},
	{name: "server.plan_hit_ms_p50", unit: "ms", better: "lower"},
	{name: "server.miss_ms_p50", unit: "ms", better: "lower"},
	{name: "server.admission_wait_ms_mean", unit: "ms", better: "lower"},
	{name: "server.stale_replans", unit: "count", better: "lower"},
	{name: "server.shed_ratio", unit: "ratio", better: "lower"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
}

// runSeconds is how long one run measures; it is the run_seconds of
// BENCHMARK.json and the default of -seconds.
const runSeconds = 20

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run, or a comma-separated list; empty runs all four")
		seed         = flag.Int64("seed", defaultSeed, "seed of every generator, the order of the Zipf mix and the spelling choice")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace        = flag.Int("trace", -1, "0: untraced phase, end-to-end metrics; 1: traced phase, per-layer metrics; -1: one run of each")
		quick        = flag.Bool("quick", false, "tiny data sizes and a single set-up, for the unit test")
		tmp          = flag.String("tmp", "", "directory to create the run's temp dir in (default: the system's)")
		traceOut     = flag.String("trace-out", "", "keep the traced run's span JSONL at this path")
		selfcheck    = flag.Bool("selfcheck", false, "run two sets of ten runs per workload and compare spread and drift with the bounds")
		manifest     = flag.Bool("print-manifest", false, "print BENCHMARK.json and exit")

		serve      = flag.Bool("serve", false, "internal: serve one dataset as a child process")
		index      = flag.Int("index", 0, "internal: dataset number of the child")
		storePath  = flag.String("store", "", "internal: disk store file the child serves")
		childTrace = flag.Bool("child-trace", false, "internal: child records handler and Match totals")
	)
	flag.Parse()
	if err := func() error {
		switch {
		case *manifest:
			return printManifest(os.Stdout)
		case *serve:
			wl := workloadByName(*workloadFlag)
			if wl == nil {
				return fmt.Errorf("unknown workload %q", *workloadFlag)
			}
			return serveChild(wl, *seed, *quick, *index, *storePath, *childTrace)
		}
		var wls []*workload
		for _, name := range strings.Split(*workloadFlag, ",") {
			if wl := workloadByName(name); wl != nil {
				wls = append(wls, wl)
			} else if name != "" {
				return fmt.Errorf("unknown workload %q", name)
			}
		}
		if len(wls) == 0 {
			wls = workloads
		}
		if *selfcheck {
			return selfCheck(wls, *seed, *seconds, *tmp)
		}
		modes := []bool{false, true}
		if *trace >= 0 {
			modes = []bool{*trace == 1}
		}
		failed := 0
		for _, wl := range wls {
			for _, traced := range modes {
				res, err := runOnce(context.Background(), runConfig{
					wl: wl, seed: *seed, seconds: *seconds, traced: traced, quick: *quick,
					tmp: *tmp, traceOut: *traceOut, log: os.Stdout,
				})
				if err != nil {
					return fmt.Errorf("%s: %w", wl.name, err)
				}
				printResult(os.Stdout, wl, traced, res)
				failed += res.Failed
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d failed operations", failed)
		}
		return nil
	}(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// printResult prints every metric by name with its unit, then the result
// as one JSON object on the last line.
func printResult(w io.Writer, wl *workload, traced bool, res *result) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "== %s (traced %v): attempted %d, failed %d, failed_ratio %g\n",
		wl.name, traced, res.Attempted, res.Failed, float64(res.Failed)/float64(max(1, res.Attempted)))
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, _ := json.Marshal(res) // a map of plain values cannot fail to marshal
	fmt.Fprintf(w, "%s\n", line)
}

// printManifest writes BENCHMARK.json from the tables above.
func printManifest(w io.Writer) error {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []e2eEntry      `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{wl.name, wl.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2eEntry{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerEntry{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(m)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method).
func quartileSpread(values []float64) (med, spread float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med = q(2)
	return med, ratio(q(3)-q(1), med)
}

// selfcheckRuns is the number of runs in each of -selfcheck's two sets.
const selfcheckRuns = 10

// selfCheck is the acceptance procedure run by hand: per workload two sets
// of runs, each run a fresh process, run i of either set with seed+i. Every
// end-to-end metric's quartile spread over a set must stay within its bound
// (setup_s excepted) and the second set's median must not be worse than the
// first's by more than the bound. Both sets use the same seeds, so what
// moves a median from the first to the second is the machine and nothing
// else, and on the workloads with one client a seed's requests_per_query
// must be the same number in both.
func selfCheck(wls []*workload, seed int64, seconds float64, tmp string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, wl := range wls {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < selfcheckRuns; i++ {
				args := []string{"-workload", wl.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-tmp", tmp}
				var out bytes.Buffer
				cmd := exec.Command(exe, args...)
				cmd.Stdout, cmd.Stderr = &out, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s run %d of set %d: %w\n%s", wl.name, i, set, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s: last line is not a result: %w", wl.name, err)
				}
				if res.Failed > 0 {
					return fmt.Errorf("%s seed %s: %d failed operations", wl.name, args[3], res.Failed)
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("== %s: %d runs per set\n%-28s %12s %12s %9s %9s %9s %7s\n", wl.name, selfcheckRuns,
			"metric", "median A", "median B", "spread A", "spread B", "worse by", "bound")
		for _, d := range endToEnd {
			medA, spreadA := quartileSpread(sets[0][d.name])
			medB, spreadB := quartileSpread(sets[1][d.name])
			worse := ratio(medB-medA, medA)
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.bound || (d.name != "setup_s" && (spreadA > d.bound || spreadB > d.bound)) {
				verdict = "  OUTSIDE"
				bad++
			}
			fmt.Printf("%-28s %12.6g %12.6g %8.2f%% %8.2f%% %8.2f%% %6.1f%%%s\n",
				d.name, medA, medB, 100*spreadA, 100*spreadB, 100*worse, 100*d.bound, verdict)
		}
		if !wl.service {
			a, b := sets[0]["requests_per_query"], sets[1]["requests_per_query"]
			for i := range a {
				if a[i] != b[i] {
					fmt.Printf("requests_per_query of seed %d: %v in set A, %v in set B  NOT EXACT\n", seed+int64(i), a[i], b[i])
					bad++
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics outside their bounds", bad)
	}
	return nil
}
