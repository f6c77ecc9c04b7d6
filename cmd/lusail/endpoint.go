package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"lusail"
)

// runEndpoint serves one dataset over the SPARQL 1.1 protocol, as one
// endpoint of a federation, until ctx is cancelled; then it closes its
// listener and store. -store disk:<path> serves a store built by lusail
// load: it starts at once and holds memory within the -cache block budget
// however large the file is.
func runEndpoint(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("endpoint", stderr)
	addr := fs.String("addr", ":8081", "listen address")
	name := fs.String("name", "endpoint", "endpoint name")
	data := fs.String("data", "-", "Turtle or N-Triples file to serve ('-' for stdin)")
	backend := fs.String("store", "mem", "backend: 'mem' (load -data into memory) or 'disk:<path>' (serve a store built by lusail load)")
	cacheMiB := fs.Int64("cache", 0, "disk store block-cache budget in MiB (0 = default 64)")
	quiet := fs.Bool("quiet", false, "suppress startup output")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	diskPath, disk := strings.CutPrefix(*backend, "disk:")
	if !disk && *backend != "mem" {
		return usage(fs, fmt.Errorf("invalid -store %q, want mem or disk:<path>", *backend))
	}

	var g lusail.Graph
	if disk {
		ds, err := lusail.OpenDiskStore(diskPath, lusail.DiskStoreOptions{CacheBytes: *cacheMiB << 20})
		if err != nil {
			return fail(fs, err)
		}
		defer ds.Close()
		g = ds
	} else {
		triples, err := readTurtle(*data)
		if err != nil {
			return fail(fs, fmt.Errorf("parsing %s: %w", *data, err))
		}
		g = lusail.NewMemoryStore(triples)
	}
	srv, err := lusail.ServeGraph(*name, *addr, g)
	if err != nil {
		return fail(fs, err)
	}
	if !*quiet {
		base := strings.TrimSuffix(srv.URL, "/sparql")
		fmt.Fprintf(stdout, "endpoint %q serving %d triples at %s\n", *name, g.Len(), srv.URL)
		fmt.Fprintf(stdout, "metrics at %s/metrics (Prometheus text), snapshot at %s/debug/federation\n", base, base)
	}
	<-ctx.Done()
	if err := srv.Close(); err != nil {
		return fail(fs, err)
	}
	return 0
}

// readTurtle parses the Turtle or N-Triples file path ("-" for stdin).
func readTurtle(path string) ([]lusail.Triple, error) {
	in, err := openInput(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return lusail.ParseTurtle(in)
}
