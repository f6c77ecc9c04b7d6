// Command lusail-bench regenerates the paper's tables and figures against
// the synthetic federations, printing each as a text table. See DESIGN.md
// for the experiment index and EXPERIMENTS.md for recorded paper-vs-
// measured comparisons.
//
// Usage:
//
//	lusail-bench                       # run everything at scale 1
//	lusail-bench -experiment fig9      # one experiment
//	lusail-bench -scale 4 -timeout 2m  # bigger data, longer cutoff
//	lusail-bench -experiment catalog -json .  # also write BENCH_catalog.json
//
// Experiments (bench.Experiments, in the order "all" runs them): table1,
// fig8, fig9, fig10, fig11, fig12a, fig12bc, fig13, fig14, table2, qerror,
// preprocessing, blocksize, catalog, faults.
//
// It exits 0 on success, 1 when an experiment fails and 2 on a usage
// error, such as an experiment ID that is not in the table.
//
// -metrics-addr also exposes /debug/pprof/ for live CPU and heap profiles
// of a running experiment.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"lusail/internal/bench"
	"lusail/internal/core"
	"lusail/internal/lint/leakcheck"
	"lusail/internal/obs"
	"lusail/internal/resilience"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments in table order and
// returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lusail-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "experiment id (or comma list)")
	scale := fs.Int("scale", 1, "dataset scale factor")
	timeout := fs.Duration("timeout", 60*time.Second, "per-query timeout")
	repeats := fs.Int("repeats", 3, "runs per query (first is warmup)")
	endpoints := fs.String("endpoints", "4,16,64,256", "endpoint counts for fig12bc")
	faultRate := fs.Float64("fault-rate", 0.3, "injected error rate of the faulty endpoint (faults experiment)")
	faultHang := fs.Float64("fault-hang", 0.1, "injected hang rate of the faulty endpoint (faults experiment)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/federation on this address while experiments run")
	jsonDir := fs.String("json", "", "also write each experiment's tables to BENCH_<id>.json in this directory")
	checkInvariants := fs.Bool("check-invariants", false, "run a single LUBM query with resilience enabled under a goroutine-leak check and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *checkInvariants {
		if err := runInvariantSmoke(ctx, *timeout); err != nil {
			fmt.Fprintf(stderr, "lusail-bench: invariant smoke failed: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "invariant smoke passed: query answered, breaker state consistent, no goroutines leaked")
		return 0
	}

	opts := bench.ExpOptions{Scale: *scale, Timeout: *timeout, Repeats: *repeats, FaultRate: *faultRate, FaultHang: *faultHang}
	for _, s := range strings.Split(*endpoints, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(stderr, "lusail-bench: invalid -endpoints %q\n", *endpoints)
			return 2
		}
		opts.Endpoints = append(opts.Endpoints, n)
	}
	selected, err := selectExperiments(*experiment)
	if err != nil {
		fmt.Fprintf(stderr, "lusail-bench: %v\n", err)
		return 2
	}

	if *metricsAddr != "" {
		serveMetrics(*metricsAddr)
	}
	start := time.Now()
	for _, e := range selected {
		ts, err := e.Run(ctx, opts)
		if err != nil {
			fmt.Fprintf(stderr, "lusail-bench: %s: %v\n", e.ID, err)
			return 1
		}
		for _, t := range ts {
			fmt.Fprintln(stdout, t.String())
		}
		if *jsonDir == "" {
			continue
		}
		path := filepath.Join(*jsonDir, "BENCH_"+e.ID+".json")
		data, err := json.MarshalIndent(ts, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "lusail-bench: writing %s: %v\n", path, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n\n", path)
	}
	fmt.Fprintf(stdout, "total experiment time: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// selectExperiments returns the experiments a comma list of IDs names, in
// table order; "all" names every one. An ID that is not in the table is an
// error that lists the valid ones.
func selectExperiments(list string) ([]bench.Experiment, error) {
	var ids []string
	for _, e := range bench.Experiments {
		ids = append(ids, e.ID)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if id != "all" && !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %q; valid: %s, all", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var out []bench.Experiment
	for _, e := range bench.Experiments {
		if want["all"] || want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// serveMetrics serves the process's metrics, federation snapshot and pprof
// handlers on addr in the background.
func serveMetrics(addr string) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Default().MetricsHandler())
	mux.Handle("/debug/federation", obs.Default().DebugHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("lusail-bench: metrics listener: %v", err)
		}
	}()
}

// runInvariantSmoke is the -check-invariants mode: one LUBM query on a
// 2-university federation with the full resilience stack active (breakers
// and hedged probes), bracketed by a goroutine-leak check. It exercises at
// runtime the same invariants lusail-vet enforces statically — every claimed
// breaker admission recorded, every span ended, every goroutine rooted in a
// cancellable context — and fails non-zero if the engine strands work.
func runInvariantSmoke(ctx context.Context, timeout time.Duration) error {
	base := leakcheck.Take()
	fed, err := bench.NewFed(bench.GenerateLUBM(bench.DefaultLUBM(2)), bench.InProcess())
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.OnEndpointFailure = core.Degrade
	opts.Resilience = resilience.Config{
		FailureThreshold: 0.5,
		Window:           20,
		MinSamples:       5,
		Cooldown:         time.Second,
		HedgeQuantile:    0.9,
		HedgeWarmup:      2,
		HedgeMinDelay:    time.Millisecond,
	}
	eng := fed.NewLusail(opts)
	q := bench.LUBMQueries()[0]
	qctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	res, _, err := eng.QueryString(qctx, q.Text)
	if err != nil {
		return fmt.Errorf("query %s: %w", q.Name, err)
	}
	if res.Len() == 0 {
		return fmt.Errorf("query %s: empty result set", q.Name)
	}
	for _, ds := range fed.Datasets {
		if st := eng.Resilience().State(ds.Name); st != resilience.Closed {
			return fmt.Errorf("breaker %s ended the healthy run in state %v", ds.Name, st)
		}
	}
	return leakcheck.Verify(base, leakcheck.DefaultGrace)
}
