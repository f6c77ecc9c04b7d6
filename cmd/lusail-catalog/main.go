// Command lusail-catalog builds, inspects, and refreshes the persistent
// endpoint catalog consumed by lusail's -catalog flag: one data summary
// per endpoint (predicates, classes, VoID-style counts, URI-authority
// sketches, probed capabilities) that replaces per-query COUNT probes.
//
// Usage:
//
//	lusail-catalog build -endpoint u0=http://host1:8081/sparql \
//	    -endpoint u1=http://host2:8081/sparql -out catalog.json
//	lusail-catalog inspect -catalog catalog.json [-verbose]
//	lusail-catalog refresh -catalog catalog.json -ttl 24h \
//	    -endpoint u0=http://host1:8081/sparql -endpoint u1=...
//
// build scans every endpoint and writes a fresh catalog. refresh rebuilds
// only summaries older than -ttl (or missing), leaving fresh ones
// untouched. inspect prints what the catalog knows without contacting any
// endpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"lusail"
)

type endpointFlags []string

func (e *endpointFlags) String() string { return strings.Join(*e, ",") }
func (e *endpointFlags) Set(v string) error {
	*e = append(*e, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lusail-catalog: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		runBuild(os.Args[2:])
	case "inspect":
		runInspect(os.Args[2:])
	case "refresh":
		runRefresh(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lusail-catalog {build|inspect|refresh} [flags]")
	fmt.Fprintln(os.Stderr, "  build   -endpoint name=url ... -out catalog.json [-timeout 10m]")
	fmt.Fprintln(os.Stderr, "  inspect -catalog catalog.json [-ttl 24h] [-verbose]")
	fmt.Fprintln(os.Stderr, "  refresh -catalog catalog.json -endpoint name=url ... [-ttl 24h] [-timeout 10m]")
	os.Exit(2)
}

func parseEndpoints(specs endpointFlags) []lusail.Endpoint {
	if len(specs) == 0 {
		log.Fatal("at least one -endpoint name=url is required")
	}
	var eps []lusail.Endpoint
	for _, spec := range specs {
		name, url, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("invalid -endpoint %q, want name=url", spec)
		}
		eps = append(eps, lusail.NewHTTPEndpoint(name, url))
	}
	return eps
}

func runBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var endpoints endpointFlags
	fs.Var(&endpoints, "endpoint", "endpoint as name=url (repeatable)")
	out := fs.String("out", "catalog.json", "output catalog file")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall build timeout")
	fs.Parse(args)

	eps := parseEndpoints(endpoints)
	cat := lusail.NewCatalog(*out, 0)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	if err := lusail.BuildCatalog(ctx, eps, cat); err != nil {
		log.Fatal(err)
	}
	if err := cat.Save(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %d summaries in %v -> %s\n", cat.Len(), time.Since(start).Round(time.Millisecond), *out)
}

func runRefresh(args []string) {
	fs := flag.NewFlagSet("refresh", flag.ExitOnError)
	var endpoints endpointFlags
	fs.Var(&endpoints, "endpoint", "endpoint as name=url (repeatable)")
	path := fs.String("catalog", "catalog.json", "catalog file to refresh in place")
	ttl := fs.Duration("ttl", 24*time.Hour, "rebuild summaries older than this (0 = only missing ones)")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall refresh timeout")
	fs.Parse(args)

	eps := parseEndpoints(endpoints)
	cat, err := lusail.OpenCatalog(*path, *ttl)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	n, err := lusail.RefreshCatalog(ctx, eps, cat)
	if err != nil {
		log.Fatal(err)
	}
	if n > 0 {
		if err := cat.Save(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("refreshed %d of %d summaries in %v -> %s\n", n, cat.Len(), time.Since(start).Round(time.Millisecond), *path)
}

func runInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	path := fs.String("catalog", "catalog.json", "catalog file to inspect")
	ttl := fs.Duration("ttl", 24*time.Hour, "staleness horizon used for the fresh column (0 = never stale)")
	verbose := fs.Bool("verbose", false, "also list per-predicate statistics")
	fs.Parse(args)

	cat, err := lusail.OpenCatalog(*path, *ttl)
	if err != nil {
		log.Fatal(err)
	}
	if cat.Len() == 0 {
		fmt.Printf("%s: empty catalog\n", *path)
		return
	}
	now := time.Now()
	fmt.Printf("%-20s %10s %6s %8s %7s %6s %6s %9s\n",
		"endpoint", "triples", "preds", "classes", "values", "trunc", "fresh", "age")
	for _, name := range cat.Endpoints() {
		sum, ok := cat.Summary(name)
		if !ok {
			continue
		}
		fresh := "yes"
		if !sum.Fresh(now, *ttl) {
			fresh = "STALE"
		}
		fmt.Printf("%-20s %10d %6d %8d %7v %6v %6s %9s\n",
			sum.Endpoint, sum.Triples, len(sum.Predicates), len(sum.Classes),
			sum.Capabilities.SupportsValues, sum.Capabilities.Truncated, fresh,
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
			fmt.Printf("    %-60s triples=%d subjects=%d objects=%d literals=%d\n",
				p, ps.Triples, ps.Subjects, ps.Objects, ps.LiteralObjects)
		}
	}
}
