// Command lusail-endpoint serves an RDF dataset over HTTP using the SPARQL
// 1.1 protocol, playing the role of one endpoint in a federation.
//
// Usage:
//
//	lusail-endpoint -addr :8081 -name university0 -data u0.nt
//	lusail-endpoint -addr :8081 -name university0 -store disk:u0.lds
//
// With the default in-memory backend, the dataset is read from a Turtle or
// N-Triples file (or stdin with -data -). With -store disk:<path>, the
// endpoint serves a disk-backed store built by lusail-load: startup is
// immediate and memory stays within the block-cache budget no matter how
// large the store file is. Either way the endpoint answers SELECT and ASK
// queries at / and /sparql via GET or POST. SELECT results come in the
// format the Accept header asks for (TSV, which lusail requests, or
// application/sparql-results+json by default; also CSV and XML), ASK
// results always as JSON.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"lusail"
)

func main() {
	addr := flag.String("addr", ":8081", "listen address")
	name := flag.String("name", "endpoint", "endpoint name")
	data := flag.String("data", "-", "Turtle or N-Triples file to serve ('-' for stdin)")
	storeFlag := flag.String("store", "mem", "backend: 'mem' (load -data into memory) or 'disk:<path>' (serve a lusail-load store)")
	cacheMiB := flag.Int64("cache", 0, "disk store block-cache budget in MiB (0 = default 64)")
	quiet := flag.Bool("quiet", false, "suppress startup output")
	flag.Parse()

	var g lusail.Graph
	switch {
	case *storeFlag == "mem":
		in := os.Stdin
		if *data != "-" {
			f, err := os.Open(*data)
			if err != nil {
				log.Fatalf("lusail-endpoint: %v", err)
			}
			defer f.Close()
			in = f
		}
		triples, err := lusail.ParseTurtle(in)
		if err != nil {
			log.Fatalf("lusail-endpoint: parsing %s: %v", *data, err)
		}
		g = lusail.NewMemoryStore(triples)
	case strings.HasPrefix(*storeFlag, "disk:"):
		path := strings.TrimPrefix(*storeFlag, "disk:")
		ds, err := lusail.OpenDiskStore(path, lusail.DiskStoreOptions{CacheBytes: *cacheMiB << 20})
		if err != nil {
			log.Fatalf("lusail-endpoint: %v", err)
		}
		defer ds.Close()
		g = ds
	default:
		log.Fatalf("lusail-endpoint: invalid -store %q (want 'mem' or 'disk:<path>')", *storeFlag)
	}

	srv, err := lusail.ServeGraph(*name, *addr, g)
	if err != nil {
		log.Fatalf("lusail-endpoint: %v", err)
	}
	defer srv.Close()
	if !*quiet {
		fmt.Printf("endpoint %q serving %d triples at %s\n", *name, g.Len(), srv.URL)
		base := strings.TrimSuffix(srv.URL, "/sparql")
		fmt.Printf("metrics at %s/metrics (Prometheus text), snapshot at %s/debug/federation\n", base, base)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}
