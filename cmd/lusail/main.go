// Command lusail runs a federated SPARQL query against a set of remote
// endpoints.
//
// Usage:
//
//	lusail -endpoint u0=http://host1:8081/sparql \
//	       -endpoint u1=http://host2:8081/sparql \
//	       -query 'SELECT ?s WHERE { ?s ?p ?o } LIMIT 10'
//
// Add -profile to print the per-phase breakdown (source selection, LADE
// analysis, SAPE execution) and the decomposition chosen by the engine.
//
// Add -repeat N to run the query N times against one engine instance. The
// engine (and its source-selection and check caches) is built once, so runs
// after the first measure query execution rather than engine rebuild —
// the right way to time warm-cache behavior from the CLI. Per-run timings
// go to stderr; the result set is printed once, from the final run.
//
// Add -explain to print the full query plan and execution profile: the
// decomposition, the span tree of everything the engine did (source
// selection, check queries, COUNT probes, subqueries, bound-join batches,
// joins), and a per-endpoint table of requests, rows, and bytes.
// -trace-out writes the same span tree in Chrome trace_event format for
// chrome://tracing or Perfetto. -admin serves /metrics (Prometheus text)
// and /debug/federation (JSON) while the query runs.
//
// Add -catalog catalog.json (built beforehand with lusail-catalog) to
// answer source selection and cardinality estimation from precomputed
// summaries instead of per-query COUNT probes; -catalog-ttl bounds how
// old a summary may be before the engine falls back to probing.
//
// Add -on-failure=degrade to answer from the remaining endpoints when one
// fails mid-query instead of failing the whole query (partial results; the
// excluded contributions are reported as warnings on stderr). Degrade mode
// also enables per-endpoint circuit breakers and hedged probes with the
// library defaults. The default, -on-failure=fail, keeps strict
// all-or-nothing semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"lusail"
	"lusail/internal/obs"
	"lusail/internal/sparql"
)

type endpointFlags []string

func (e *endpointFlags) String() string { return strings.Join(*e, ",") }
func (e *endpointFlags) Set(v string) error {
	*e = append(*e, v)
	return nil
}

func main() {
	var endpoints endpointFlags
	flag.Var(&endpoints, "endpoint", "endpoint as name=url (repeatable)")
	query := flag.String("query", "", "SPARQL query text")
	queryFile := flag.String("query-file", "", "read the query from a file")
	format := flag.String("format", "table", "output format: table, json, xml, csv, or tsv")
	profile := flag.Bool("profile", false, "print the engine's phase profile")
	explain := flag.Bool("explain", false, "print the query plan and a span-level execution profile")
	traceOut := flag.String("trace-out", "", "write the query's span tree as a Chrome trace_event file")
	admin := flag.String("admin", "", "serve /metrics and /debug/federation on this address (e.g. 127.0.0.1:9090)")
	timeout := flag.Duration("timeout", time.Hour, "query timeout")
	repeat := flag.Int("repeat", 1, "run the query N times against ONE engine: caches and endpoint state stay warm, so runs after the first measure execution (plus any cache-miss planning), not engine rebuild; per-run timings go to stderr and results print once")
	noSAPE := flag.Bool("disable-sape", false, "run with LADE only (no selectivity-aware execution)")
	catalogPath := flag.String("catalog", "", "endpoint catalog file (built with lusail-catalog) for probe-free source selection and cardinality estimation")
	catalogTTL := flag.Duration("catalog-ttl", 24*time.Hour, "treat catalog summaries older than this as stale (0 = never stale)")
	onFailure := flag.String("on-failure", "fail", "endpoint failure policy: fail (whole query errors) or degrade (partial results from the surviving endpoints)")
	flag.Parse()

	if len(endpoints) == 0 {
		log.Fatal("lusail: at least one -endpoint name=url is required")
	}
	q := *query
	if *queryFile != "" {
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			log.Fatalf("lusail: %v", err)
		}
		q = string(data)
	}
	if strings.TrimSpace(q) == "" {
		log.Fatal("lusail: provide -query or -query-file")
	}

	var eps []lusail.Endpoint
	for _, spec := range endpoints {
		name, url, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("lusail: invalid -endpoint %q, want name=url", spec)
		}
		// Instrument every endpoint so the per-endpoint table of -explain
		// and the /metrics series of -admin have data.
		eps = append(eps, lusail.Instrument(lusail.NewHTTPEndpoint(name, url), nil))
	}
	opts := lusail.DefaultOptions()
	opts.DisableSAPE = *noSAPE
	opts.Trace = *explain || *traceOut != ""
	switch *onFailure {
	case "fail":
	case "degrade":
		opts.OnEndpointFailure = lusail.Degrade
		opts.Resilience = lusail.DefaultResilience()
	default:
		log.Fatalf("lusail: invalid -on-failure %q, want fail or degrade", *onFailure)
	}
	if *catalogPath != "" {
		cat, err := lusail.OpenCatalog(*catalogPath, *catalogTTL)
		if err != nil {
			log.Fatalf("lusail: %v", err)
		}
		if cat.Len() == 0 {
			log.Printf("lusail: catalog %s is empty; run lusail-catalog build first (falling back to probes)", *catalogPath)
		}
		opts.Catalog = cat
	}
	eng, err := lusail.NewEngine(eps, opts)
	if err != nil {
		log.Fatalf("lusail: %v", err)
	}

	if *admin != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Default().MetricsHandler())
		mux.Handle("/debug/federation", obs.Default().DebugHandler())
		go func() {
			if err := http.ListenAndServe(*admin, mux); err != nil {
				log.Printf("lusail: admin listener: %v", err)
			}
		}()
	}

	if *repeat < 1 {
		log.Fatalf("lusail: -repeat must be >= 1, got %d", *repeat)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// All -repeat runs share this one engine: the source-selection and
	// check caches stay warm after run 1, so later runs time execution
	// rather than engine construction + cold planning.
	var res *lusail.Results
	var prof *lusail.Profile
	for i := 0; i < *repeat; i++ {
		res, prof, err = eng.QueryString(ctx, q)
		if err != nil {
			log.Fatalf("lusail: run %d/%d: %v", i+1, *repeat, err)
		}
		if *repeat > 1 {
			fmt.Fprintf(os.Stderr, "run %d/%d: total=%v (source-selection=%v analysis=%v execution=%v)\n",
				i+1, *repeat, prof.Total, prof.SourceSelection, prof.Analysis, prof.Execution)
		}
	}
	for _, w := range prof.Warnings {
		fmt.Fprintf(os.Stderr, "warning: endpoint %s (%s): %s\n", w.Endpoint, w.Phase, w.Message)
	}

	if f, ok := formats[*format]; ok {
		if err := res.Write(os.Stdout, f); err != nil {
			log.Fatalf("lusail: %v", err)
		}
		if f == sparql.FormatJSON || f == sparql.FormatXML {
			fmt.Println() // the document itself ends without a newline
		}
	} else {
		printTable(res)
	}
	if *profile {
		fmt.Fprintf(os.Stderr, "\nphases: source-selection=%v analysis=%v execution=%v total=%v\n",
			prof.SourceSelection, prof.Analysis, prof.Execution, prof.Total)
		fmt.Fprintf(os.Stderr, "GJVs: %v  subqueries: %d (%d delayed)  checks: %d  count-probes: %d  catalog-hits: %d\n",
			prof.GJVs, prof.Subqueries, prof.Delayed, prof.ChecksIssued, prof.CountProbes, prof.CatalogHits)
		for _, d := range prof.Decomposition {
			fmt.Fprintf(os.Stderr, "  subquery %s\n", d)
		}
	}
	if *explain {
		fmt.Fprintf(os.Stderr, "\n== PLAN ==\n")
		fmt.Fprintf(os.Stderr, "GJVs: %v  subqueries: %d (%d delayed)\n",
			prof.GJVs, prof.Subqueries, prof.Delayed)
		for _, d := range prof.Decomposition {
			fmt.Fprintf(os.Stderr, "  subquery %s\n", d)
		}
		fmt.Fprintf(os.Stderr, "\n== PROFILE ==\n")
		if err := obs.WriteExplain(os.Stderr, prof.Trace); err != nil {
			log.Fatalf("lusail: %v", err)
		}
		fmt.Fprintln(os.Stderr)
		if err := obs.WriteEndpointStats(os.Stderr, obs.Default()); err != nil {
			log.Fatalf("lusail: %v", err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("lusail: %v", err)
		}
		if err := obs.WriteChromeTrace(f, prof.Trace); err != nil {
			log.Fatalf("lusail: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("lusail: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in chrome://tracing or Perfetto)\n", *traceOut)
	}
}

// formats maps the -format names of the SPARQL results formats; any other
// name prints a plain table.
var formats = map[string]sparql.Format{
	"json": sparql.FormatJSON,
	"xml":  sparql.FormatXML,
	"csv":  sparql.FormatCSV,
	"tsv":  sparql.FormatTSV,
}

func printTable(res *lusail.Results) {
	if res.IsBoolean {
		fmt.Println(res.Boolean)
		return
	}
	fmt.Println(strings.Join(res.Vars, "\t"))
	for i := range res.Rows {
		cells := make([]string, len(res.Vars))
		for j := range res.Vars {
			t := res.Rows[i][j]
			if !t.IsZero() {
				cells[j] = t.String()
			}
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Fprintf(os.Stderr, "%d result(s)\n", res.Len())
}
