// early-results: the paper's future-work feature — delivering solutions as
// soon as they are complete instead of waiting for the slowest endpoint.
// Three endpoints hold the same kind of data; one of them is on a
// high-latency link. Streaming mode surfaces the fast endpoints' answers
// hundreds of milliseconds before the full result set is ready.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"lusail"
)

const dcat = "http://www.w3.org/ns/dcat#"

func catalog(region string, n int) []lusail.Triple {
	t := func(s, p, o lusail.Term) lusail.Triple { return lusail.Triple{S: s, P: p, O: o} }
	var ts []lusail.Triple
	for i := 0; i < n; i++ {
		ds := lusail.IRI(fmt.Sprintf("http://%s.example/dataset/%d", region, i))
		ts = append(ts,
			t(ds, lusail.IRI(dcat+"title"), lusail.Literal(fmt.Sprintf("%s dataset %d", region, i))),
			t(ds, lusail.IRI(dcat+"theme"), lusail.Literal([]string{"health", "transport", "energy"}[i%3])),
		)
	}
	return ts
}

func main() {
	endpoints := []lusail.Endpoint{
		lusail.NewMemoryEndpoint("fast-1", catalog("fast-1", 6)),
		lusail.NewMemoryEndpoint("fast-2", catalog("fast-2", 6)),
		// The laggard: 250ms per request.
		lusail.WithLatency(lusail.NewMemoryEndpoint("slow", catalog("slow", 6)), 250*time.Millisecond, 0),
	}
	eng, err := lusail.NewEngine(endpoints, lusail.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Both patterns keep variable objects (the theme constraint moves into
	// a FILTER, which Lusail pushes into the subquery): the instance checks
	// then prove ?d local, the whole query becomes ONE subquery per
	// endpoint, and streaming mode applies. With the constant form
	// (?d dcat:theme "health") the paper's bidirectional check classifies
	// ?d as global — datasets with titles but other themes witness the
	// difference — and results would only be complete after a global join.
	query := `
		PREFIX dcat: <` + dcat + `>
		SELECT ?d ?title WHERE {
			?d dcat:theme ?theme .
			?d dcat:title ?title .
			FILTER(STR(?theme) = "health")
		}`

	start := time.Now()
	rows, err := eng.Select(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
		fmt.Printf("%8v  result %d: %s\n", time.Since(start).Round(time.Millisecond), n, rows.Binding()["title"].Value)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal=%v results=%d\n", time.Since(start).Round(time.Millisecond), n)
	fmt.Println("note how the fast endpoints' rows arrive before the slow endpoint answers")
}
