// Quickstart: federate two in-memory SPARQL endpoints and run a query that
// must traverse an interlink between them — the smallest possible version
// of the paper's Figure 1/2 scenario.
//
// To serve the same federation to many users instead of querying it once,
// point `lusail serve` at HTTP endpoints and speak the SPARQL protocol:
//
//	lusail serve -addr :8094 -endpoint u0=http://host1:8081/sparql \
//	                         -endpoint u1=http://host2:8081/sparql
//	curl -G --data-urlencode 'query=SELECT ?s WHERE { ?s ?p ?o } LIMIT 5' \
//	     http://localhost:8094/sparql
package main

import (
	"context"
	"fmt"
	"log"

	"lusail"
)

const (
	ub  = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
	rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
)

func t(s, p, o lusail.Term) lusail.Triple { return lusail.Triple{S: s, P: p, O: o} }

func main() {
	// Endpoint 1: university A. It owns univA and its address, which
	// endpoint 2's professor Tim references remotely.
	univA := lusail.IRI("http://univA.edu")
	ep1 := lusail.NewMemoryEndpoint("univA", []lusail.Triple{
		t(univA, lusail.IRI(ub+"address"), lusail.Literal("1 College Road, A-Town")),
	})

	// Endpoint 2: university B with students, advisors, and courses.
	univB := lusail.IRI("http://univB.edu")
	kim, joy, tim := lusail.IRI("http://univB.edu/kim"), lusail.IRI("http://univB.edu/joy"), lusail.IRI("http://univB.edu/tim")
	db := lusail.IRI("http://univB.edu/course/db")
	ep2 := lusail.NewMemoryEndpoint("univB", []lusail.Triple{
		t(univB, lusail.IRI(ub+"address"), lusail.Literal("2 Campus Way, B-Ville")),
		t(kim, lusail.IRI(rdf+"type"), lusail.IRI(ub+"GraduateStudent")),
		t(kim, lusail.IRI(ub+"advisor"), joy),
		t(kim, lusail.IRI(ub+"advisor"), tim),
		t(kim, lusail.IRI(ub+"takesCourse"), db),
		t(joy, lusail.IRI(ub+"teacherOf"), db),
		t(tim, lusail.IRI(ub+"teacherOf"), db),
		t(joy, lusail.IRI(ub+"PhDDegreeFrom"), univB), // local degree
		t(tim, lusail.IRI(ub+"PhDDegreeFrom"), univA), // interlink to EP1!
	})

	// Count every request so we can see the engine's communication cost.
	var metrics lusail.Metrics
	eng, err := lusail.NewEngine([]lusail.Endpoint{
		lusail.Instrument(ep1, &metrics),
		lusail.Instrument(ep2, &metrics),
	}, lusail.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// The paper's query Qa: students taking a course with their advisor,
	// with the advisor's alma mater and its address. Tim's alma mater lives
	// at the other endpoint, so the engine must join across endpoints.
	query := `
		PREFIX ub: <` + ub + `>
		SELECT ?student ?advisor ?university ?address WHERE {
			?student ub:advisor ?advisor .
			?advisor ub:teacherOf ?course .
			?student ub:takesCourse ?course .
			?advisor ub:PhDDegreeFrom ?university .
			?university ub:address ?address .
		}`
	res, prof, err := eng.QueryString(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("results:")
	for i := 0; i < res.Len(); i++ {
		b := res.Binding(i)
		fmt.Printf("  %s advised by %s (PhD: %s, %q)\n",
			short(b["student"]), short(b["advisor"]), short(b["university"]), b["address"].Value)
	}
	fmt.Printf("\nglobal join variables: %v\n", prof.GJVs)
	fmt.Printf("subqueries: %d (%d delayed)\n", prof.Subqueries, prof.Delayed)
	for _, d := range prof.Decomposition {
		fmt.Printf("  %s\n", d)
	}
	s := metrics.Snapshot()
	fmt.Printf("requests: %d  rows shipped: %d  ~bytes: %d\n", s.Requests, s.Rows, s.Bytes)
	fmt.Printf("phases: source-selection=%v analysis=%v execution=%v\n",
		prof.SourceSelection, prof.Analysis, prof.Execution)
}

func short(t lusail.Term) string {
	v := t.Value
	for i := len(v) - 1; i >= 0; i-- {
		if v[i] == '/' || v[i] == '#' {
			return v[i+1:]
		}
	}
	return v
}
