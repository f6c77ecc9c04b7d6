package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"lusail"
)

var catalogVerbs = map[string]verb{
	"build":   runCatalogBuild,
	"inspect": runCatalogInspect,
	"refresh": runCatalogRefresh,
}

// runCatalog builds, refreshes and inspects the endpoint catalog that the
// -catalog flag of query and serve reads: one data summary per endpoint
// (predicates, classes, VoID-style counts, URI-authority sketches, probed
// capabilities) that replaces per-query COUNT probes.
func runCatalog(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	return dispatch(ctx, catalogVerbs, "usage: lusail catalog {build|inspect|refresh} [flags]", args, stdout, stderr)
}

// runCatalogBuild scans every endpoint and writes a fresh catalog.
func runCatalogBuild(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("catalog build", stderr)
	endpoints := addEndpointFlag(fs)
	path := fs.String("catalog", "catalog.json", "catalog file to write")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall build timeout")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if err := endpoints.check(); err != nil {
		return usage(fs, err)
	}

	cat := lusail.NewCatalog(*path, 0)
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	start := time.Now()
	if err := lusail.BuildCatalog(ctx, endpoints.endpoints(), cat); err != nil {
		return fail(fs, err)
	}
	if err := cat.Save(); err != nil {
		return fail(fs, err)
	}
	fmt.Fprintf(stdout, "built %d summaries in %v -> %s\n", cat.Len(), time.Since(start).Round(time.Millisecond), *path)
	return 0
}

// runCatalogRefresh rebuilds only the summaries older than -catalog-ttl or
// missing, leaving fresh ones untouched.
func runCatalogRefresh(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("catalog refresh", stderr)
	endpoints := addEndpointFlag(fs)
	path := fs.String("catalog", "catalog.json", "catalog file to refresh in place")
	ttl := fs.Duration("catalog-ttl", 24*time.Hour, "rebuild summaries older than this (0 = only missing ones)")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall refresh timeout")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if err := endpoints.check(); err != nil {
		return usage(fs, err)
	}

	cat, err := lusail.OpenCatalog(*path, *ttl)
	if err != nil {
		return fail(fs, err)
	}
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	start := time.Now()
	n, err := lusail.RefreshCatalog(ctx, endpoints.endpoints(), cat)
	if err != nil {
		return fail(fs, err)
	}
	if n > 0 {
		if err := cat.Save(); err != nil {
			return fail(fs, err)
		}
	}
	fmt.Fprintf(stdout, "refreshed %d of %d summaries in %v -> %s\n", n, cat.Len(), time.Since(start).Round(time.Millisecond), *path)
	return 0
}

// runCatalogInspect prints what the catalog knows without contacting any
// endpoint.
func runCatalogInspect(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("catalog inspect", stderr)
	path := fs.String("catalog", "catalog.json", "catalog file to inspect")
	ttl := fs.Duration("catalog-ttl", 24*time.Hour, "staleness horizon used for the fresh column (0 = never stale)")
	verbose := fs.Bool("verbose", false, "also list per-predicate statistics")
	if code, ok := parse(fs, args); !ok {
		return code
	}

	cat, err := lusail.OpenCatalog(*path, *ttl)
	if err != nil {
		return fail(fs, err)
	}
	if cat.Len() == 0 {
		fmt.Fprintf(stdout, "%s: empty catalog\n", *path)
		return 0
	}
	now := time.Now()
	fmt.Fprintf(stdout, "%-20s %10s %6s %8s %6s %6s %9s\n",
		"endpoint", "triples", "preds", "classes", "trunc", "fresh", "age")
	for _, name := range cat.Endpoints() {
		sum, ok := cat.Summary(name)
		if !ok {
			continue
		}
		fresh := "yes"
		if !sum.Fresh(now, *ttl) {
			fresh = "STALE"
		}
		fmt.Fprintf(stdout, "%-20s %10d %6d %8d %6v %6s %9s\n",
			sum.Endpoint, sum.Triples, len(sum.Predicates), len(sum.Classes),
			sum.Capabilities.Truncated, fresh,
			sum.Age(now).Round(time.Second))
		if !*verbose {
			continue
		}
		preds := make([]string, 0, len(sum.Predicates))
		for p := range sum.Predicates {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		for _, p := range preds {
			ps := sum.Predicates[p]
			fmt.Fprintf(stdout, "    %-60s triples=%d subjects=%d objects=%d literals=%d\n",
				p, ps.Triples, ps.Subjects, ps.Objects, ps.LiteralObjects)
		}
	}
	return 0
}
