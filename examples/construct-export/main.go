// construct-export: use a federated CONSTRUCT query to materialize a new,
// unified RDF graph out of facts scattered across endpoints, then write it
// as N-Triples — the classic "build an integrated view of linked data"
// workflow the paper's introduction motivates.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"lusail"
)

const (
	drugNS  = "http://drugs.example/ns/"
	trialNS = "http://trials.example/ns/"
	outNS   = "http://unified.example/ns/"
)

func main() {
	t := func(s, p, o lusail.Term) lusail.Triple { return lusail.Triple{S: s, P: p, O: o} }
	drug := func(i int) lusail.Term { return lusail.IRI(fmt.Sprintf("http://drugs.example/drug/%02d", i)) }

	// Endpoint 1: a drug registry.
	var registry []lusail.Triple
	for i := 0; i < 8; i++ {
		registry = append(registry,
			t(drug(i), lusail.IRI(drugNS+"name"), lusail.Literal(fmt.Sprintf("drug-%02d", i))),
			t(drug(i), lusail.IRI(drugNS+"approved"), lusail.Literal([]string{"yes", "no"}[i%2])),
		)
	}
	// Endpoint 2: clinical trials referencing the registry's drug URIs.
	var trials []lusail.Triple
	for i := 0; i < 12; i++ {
		tr := lusail.IRI(fmt.Sprintf("http://trials.example/trial/%02d", i))
		trials = append(trials,
			t(tr, lusail.IRI(trialNS+"tests"), drug(i%8)),
			t(tr, lusail.IRI(trialNS+"phase"), lusail.Integer(int64(1+i%3))),
		)
	}

	eng, err := lusail.NewEngine([]lusail.Endpoint{
		lusail.NewMemoryEndpoint("registry", registry),
		lusail.NewMemoryEndpoint("trials", trials),
	}, lusail.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Build a unified graph: approved drugs annotated with the trials that
	// tested them, pulling the name from one endpoint and the trial from
	// the other.
	query := `
		PREFIX d: <` + drugNS + `>
		PREFIX t: <` + trialNS + `>
		PREFIX out: <` + outNS + `>
		CONSTRUCT {
			?drug out:label ?name .
			?drug out:evaluatedIn ?trial .
			?trial out:phase ?phase .
		}
		WHERE {
			?drug d:name ?name .
			?drug d:approved "yes" .
			?trial t:tests ?drug .
			?trial t:phase ?phase .
		}`
	triples, prof, err := eng.ConstructString(context.Background(), query)
	if err != nil {
		log.Fatal(err)
	}
	if err := lusail.WriteNTriples(os.Stdout, triples); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "\nconstructed %d triples from %d subqueries (GJVs: %v)\n",
		len(triples), prof.Subqueries, prof.GJVs)
}
