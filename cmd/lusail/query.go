package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"lusail"
	"lusail/internal/obs"
	"lusail/internal/sparql"
)

// formats maps the -format names of the SPARQL results formats; "table",
// the default, is a plain tab-separated listing.
var formats = map[string]sparql.Format{
	"json": sparql.FormatJSON,
	"xml":  sparql.FormatXML,
	"csv":  sparql.FormatCSV,
	"tsv":  sparql.FormatTSV,
}

// runQuery runs one federated SPARQL query and prints its results to
// stdout; warnings, profiles, the plan and per-run timings go to stderr.
// The -repeat runs share one engine, so its source-selection and check
// caches stay warm after run 1; the results print once, from the last run.
func runQuery(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("query", stderr)
	ef := addEngineFlags(fs, "fail")
	query := fs.String("query", "", "SPARQL query text")
	queryFile := fs.String("query-file", "", "read the query from a file")
	format := fs.String("format", "table", "output format: table, json, xml, csv, or tsv")
	profile := fs.Bool("profile", false, "print the engine's phase profile")
	explain := fs.Bool("explain", false, "print the query plan and a span-level execution profile")
	traceOut := fs.String("trace-out", "", "write the query's span tree as a Chrome trace_event file")
	admin := fs.String("admin", "", "serve /metrics and /debug/federation on this address (e.g. 127.0.0.1:9090)")
	timeout := fs.Duration("timeout", time.Hour, "query timeout")
	repeat := fs.Int("repeat", 1, "run the query N times against ONE engine: caches and endpoint state stay warm, so runs after the first measure execution (plus any cache-miss planning), not engine rebuild; per-run timings go to stderr and results print once")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if err := ef.check(); err != nil {
		return usage(fs, err)
	}
	if _, ok := formats[*format]; !ok && *format != "table" {
		return usage(fs, fmt.Errorf("invalid -format %q, want table, json, xml, csv, or tsv", *format))
	}
	if *repeat < 1 {
		return usage(fs, fmt.Errorf("-repeat must be >= 1, got %d", *repeat))
	}
	if strings.TrimSpace(*query) == "" && *queryFile == "" {
		return usage(fs, errors.New("provide -query or -query-file"))
	}

	q := *query
	if *queryFile != "" {
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			return fail(fs, err)
		}
		q = string(data)
	}
	eng, err := ef.engine(stderr, *explain || *traceOut != "")
	if err != nil {
		return fail(fs, err)
	}
	if *admin != "" {
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			return fail(fs, fmt.Errorf("admin listener: %w", err))
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Default().MetricsHandler())
		mux.Handle("/debug/federation", obs.Default().DebugHandler())
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
	}

	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	var res *lusail.Results
	var prof *lusail.Profile
	for i := 1; i <= *repeat; i++ {
		res, prof, err = eng.QueryString(ctx, q)
		if err != nil {
			return fail(fs, fmt.Errorf("run %d/%d: %w", i, *repeat, err))
		}
		if *repeat > 1 {
			fmt.Fprintf(stderr, "run %d/%d: total=%v (source-selection=%v analysis=%v execution=%v)\n",
				i, *repeat, prof.Total, prof.SourceSelection, prof.Analysis, prof.Execution)
		}
	}
	for _, w := range prof.Warnings {
		fmt.Fprintf(stderr, "warning: endpoint %s (%s): %s\n", w.Endpoint, w.Phase, w.Message)
	}

	if err := writeResults(stdout, stderr, res, *format); err != nil {
		return fail(fs, err)
	}
	if *profile {
		fmt.Fprintf(stderr, "\nphases: source-selection=%v analysis=%v execution=%v total=%v\n",
			prof.SourceSelection, prof.Analysis, prof.Execution, prof.Total)
		fmt.Fprintf(stderr, "GJVs: %v  subqueries: %d (%d delayed)  checks: %d  count-probes: %d  catalog-hits: %d\n",
			prof.GJVs, prof.Subqueries, prof.Delayed, prof.ChecksIssued, prof.CountProbes, prof.CatalogHits)
		for _, d := range prof.Decomposition {
			fmt.Fprintf(stderr, "  subquery %s\n", d)
		}
	}
	if *explain {
		fmt.Fprintf(stderr, "\n== PLAN ==\n")
		fmt.Fprintf(stderr, "GJVs: %v  subqueries: %d (%d delayed)\n", prof.GJVs, prof.Subqueries, prof.Delayed)
		for _, d := range prof.Decomposition {
			fmt.Fprintf(stderr, "  subquery %s\n", d)
		}
		fmt.Fprintf(stderr, "\n== PROFILE ==\n")
		if err := obs.WriteExplain(stderr, prof.Trace); err != nil {
			return fail(fs, err)
		}
		fmt.Fprintln(stderr)
		if err := obs.WriteEndpointStats(stderr, obs.Default()); err != nil {
			return fail(fs, err)
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, prof); err != nil {
			return fail(fs, err)
		}
		fmt.Fprintf(stderr, "trace written to %s (open in chrome://tracing or Perfetto)\n", *traceOut)
	}
	return 0
}

// writeResults prints res in the named format; the table format also
// counts the results on stderr.
func writeResults(stdout, stderr io.Writer, res *lusail.Results, format string) error {
	if f, ok := formats[format]; ok {
		if err := res.Write(stdout, f); err != nil {
			return err
		}
		if f == sparql.FormatJSON || f == sparql.FormatXML {
			_, err := fmt.Fprintln(stdout) // the document itself ends without a newline
			return err
		}
		return nil
	}
	if res.IsBoolean {
		_, err := fmt.Fprintln(stdout, res.Boolean)
		return err
	}
	w := bufio.NewWriter(stdout)
	fmt.Fprintln(w, strings.Join(res.Vars, "\t"))
	cells := make([]string, len(res.Vars))
	for _, row := range res.Rows {
		for j := range cells {
			cells[j] = ""
			if t := row[j]; !t.IsZero() {
				cells[j] = t.String()
			}
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%d result(s)\n", res.Len())
	return nil
}

// writeTrace writes the query's span tree to path as a Chrome trace.
func writeTrace(path string, prof *lusail.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, prof.Trace); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
