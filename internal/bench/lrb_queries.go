package bench

// LargeRDFBench-like query mix. The names and categories mirror the
// benchmark: S* simple (few patterns, selective, usually touching two or
// three datasets), C* complex (more patterns plus OPTIONAL / UNION /
// FILTER / LIMIT), B* large ("big data" — unselective patterns with large
// intermediate results). Structural landmarks from the paper are
// preserved: C4 carries a LIMIT clause, and C5, B5, B6 consist of two
// disjoint subgraphs related only through a FILTER.

const lrbPrefix = `
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
PREFIX tcga: <http://tcga.deri.ie/schema/>
PREFIX chebi: <http://chebi.bio2rdf.org/ns/>
PREFIX dbo: <http://dbpedia.org/ontology/>
PREFIX drug: <http://wifo5-04.informatik.uni-mannheim.de/drugbank/>
PREFIX gn: <http://www.geonames.org/ontology#>
PREFIX jam: <http://dbtune.org/jamendo/>
PREFIX kegg: <http://kegg.bio2rdf.org/ns/>
PREFIX mdb: <http://data.linkedmdb.org/resource/>
PREFIX nyt: <http://data.nytimes.com/elements/>
PREFIX swdf: <http://data.semanticweb.org/ns/>
PREFIX affy: <http://affymetrix.bio2rdf.org/ns/>
`

// LRBSimpleQueries returns the S category.
func LRBSimpleQueries() []Query {
	qs := []struct{ name, body string }{
		{"S1", `SELECT ?d ?mass WHERE {
			?d drug:genericName "drug-0003" .
			?d drug:keggCompoundId ?c .
			?c kegg:mass ?mass . }`},
		{"S2", `SELECT ?d ?abs WHERE {
			?d drug:genericName "drug-0004" .
			?d owl:sameAs ?dbp .
			?dbp dbo:abstract ?abs . }`},
		{"S3", `SELECT ?d ?c WHERE {
			?d rdf:type drug:drugs .
			?d drug:keggCompoundId ?c . }`},
		{"S4", `SELECT ?d ?cat WHERE {
			?d drug:drugCategory "cat-2" .
			?d drug:genericName ?cat . }`},
		{"S5", `SELECT ?f ?dir WHERE {
			?f mdb:title "film-0007" .
			?f owl:sameAs ?dbp .
			?dbp dbo:director ?dir . }`},
		{"S6", `SELECT ?p ?n WHERE {
			?p gn:parentCountry ?c .
			?c gn:name "country-3" .
			?p gn:name ?n . }`},
		{"S7", `SELECT ?t ?f WHERE {
			?t rdf:type nyt:Topic .
			?t owl:sameAs ?e .
			?e dbo:director ?f . }`},
		{"S8", `SELECT ?paper ?name WHERE {
			?paper swdf:author ?a .
			?a swdf:name ?name . }`},
		{"S9", `SELECT ?a ?pn WHERE {
			?a jam:name "artist-0005" .
			?a jam:basedNear ?p .
			?p gn:name ?pn . }`},
		{"S10", `SELECT ?r ?v WHERE {
			?p tcga:bcr_patient_barcode "TCGA-0007" .
			?r tcga:patient ?p .
			?r tcga:beta_value ?v . }`},
		{"S11", `SELECT ?probe ?g WHERE {
			?probe affy:symbol "GENE0009" .
			?probe affy:gene ?g . }`},
		{"S12", `SELECT ?kc ?m WHERE {
			?cc rdfs:label "compound-0011" .
			?kc owl:sameAs ?cc .
			?kc kegg:mass ?m . }`},
		{"S13", `SELECT ?d ?n ?abs WHERE {
			?d rdf:type drug:drugs .
			?d drug:genericName ?n .
			?d owl:sameAs ?dbp .
			?dbp dbo:abstract ?abs . }`},
		{"S14", `SELECT ?p ?n ?dbp WHERE {
			?p rdf:type gn:Feature .
			?p gn:name ?n .
			?dbp owl:sameAs ?p .
			?dbp dbo:country ?c2 . }`},
	}
	return buildQueries(qs)
}

// LRBComplexQueries returns the C category.
func LRBComplexQueries() []Query {
	qs := []struct{ name, body string }{
		{"C1", `SELECT ?d ?n ?kc ?cc ?cn ?m WHERE {
			?d rdf:type drug:drugs .
			?d drug:genericName ?n .
			?d drug:keggCompoundId ?kc .
			?kc owl:sameAs ?cc .
			?cc rdfs:label ?cn .
			?cc chebi:mass ?m . }`},
		{"C2", `SELECT ?d ?kc ?abs ?se WHERE {
			?d drug:genericName "drug-0008" .
			?d drug:keggCompoundId ?kc .
			?d owl:sameAs ?dbp .
			?dbp dbo:abstract ?abs .
			OPTIONAL { ?d drug:drugCategory ?se } }`},
		{"C3", `SELECT ?f ?t ?a ?an ?topic WHERE {
			?f rdf:type mdb:Film .
			?f mdb:title ?t .
			?f mdb:actor ?a .
			?a mdb:actor_name ?an .
			?f owl:sameAs ?dbp .
			?topic owl:sameAs ?dbp . }`},
		{"C4", `SELECT ?f ?t ?a ?an WHERE {
			?f rdf:type mdb:Film .
			?f mdb:title ?t .
			?f mdb:actor ?a .
			?a mdb:actor_name ?an .
		} LIMIT 50`},
		{"C5", `SELECT ?d ?cn WHERE {
			?d rdf:type drug:drugs .
			?d drug:genericName ?dn .
			?cc rdf:type chebi:Compound .
			?cc rdfs:label ?cn .
			FILTER(STR(?dn) = STR(?cn)) }`},
		{"C6", `SELECT ?c ?m WHERE {
			{ ?c kegg:mass ?m } UNION { ?c chebi:mass ?m }
			FILTER(?m > 400) }`},
		{"C7", `SELECT ?p ?bar ?ev ?bv WHERE {
			?p tcga:bcr_patient_barcode ?bar .
			?e tcga:patient ?p .
			?e tcga:expression_value ?ev .
			?m tcga:patient ?p .
			?m tcga:beta_value ?bv .
			FILTER(?ev > 9.0 && ?bv > 0.9) }`},
		{"C8", `SELECT ?probe ?g ?sym ?kc WHERE {
			?probe rdf:type affy:Probe .
			?probe affy:gene ?g .
			?probe affy:symbol ?sym .
			?g kegg:symbol ?sym .
			OPTIONAL { ?kc rdf:type kegg:Compound . ?kc kegg:mass ?mass . FILTER(?mass > 540) } }`},
		{"C9", `SELECT ?a ?an ?p ?pn ?dbp WHERE {
			?a rdf:type jam:MusicArtist .
			?a jam:name ?an .
			?a jam:basedNear ?p .
			?p gn:name ?pn .
			?dbp owl:sameAs ?p .
			?dbp dbo:country ?cy . }`},
		{"C10", `SELECT ?x ?n WHERE {
			{ ?x swdf:name ?n } UNION { ?x mdb:actor_name ?n }
			FILTER(CONTAINS(STR(?n), "-000")) }`},
	}
	return buildQueries(qs)
}

// LRBLargeQueries returns the B category.
func LRBLargeQueries() []Query {
	qs := []struct{ name, body string }{
		{"B1", `SELECT ?r ?p ?v WHERE {
			?p rdf:type tcga:Patient .
			{ ?r tcga:patient ?p . ?r tcga:beta_value ?v }
			UNION
			{ ?r tcga:patient ?p . ?r tcga:expression_value ?v } }`},
		{"B2", `SELECT ?p ?n ?c WHERE {
			?p rdf:type gn:Feature .
			?p gn:name ?n .
			?p gn:parentCountry ?c . }`},
		{"B3", `SELECT ?p ?g ?ev WHERE {
			?p rdf:type tcga:Patient .
			?e tcga:patient ?p .
			?e tcga:gene ?g .
			?e tcga:expression_value ?ev . }`},
		{"B4", `SELECT ?d ?n ?kc ?cc WHERE {
			?d rdf:type drug:drugs .
			?d drug:genericName ?n .
			?d drug:keggCompoundId ?kc .
			?kc owl:sameAs ?cc .
			?cc chebi:mass ?m . }`},
		{"B5", `SELECT ?probe ?g WHERE {
			?probe rdf:type affy:Probe .
			?probe affy:symbol ?ps .
			?g rdf:type kegg:Gene .
			?g kegg:symbol ?gs .
			FILTER(STR(?ps) = STR(?gs)) }`},
		{"B6", `# lusail-check: cartesian -- deliberate cross-endpoint product: the large-query suite stresses result volume
		SELECT ?p ?dbp WHERE {
			?p rdf:type gn:Feature .
			?p gn:name ?pn .
			?dbp rdf:type dbo:Place .
			?dbp dbo:country ?cn .
			FILTER(CONTAINS(STR(?pn), "place-00")) }`},
		{"B7", `SELECT ?probe ?g ?e WHERE {
			?probe affy:gene ?g .
			?e tcga:gene ?g .
			?e tcga:expression_value ?v . }`},
		{"B8", `SELECT ?t ?tt ?a ?an ?pn WHERE {
			?t rdf:type jam:Track .
			?t jam:title ?tt .
			?t jam:maker ?a .
			?a jam:name ?an .
			?a jam:basedNear ?p .
			?p gn:name ?pn . }`},
	}
	return buildQueries(qs)
}

// LRBQueries returns all categories concatenated.
func LRBQueries() []Query {
	out := LRBSimpleQueries()
	out = append(out, LRBComplexQueries()...)
	out = append(out, LRBLargeQueries()...)
	return out
}

func buildQueries(qs []struct{ name, body string }) []Query {
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = Query{Name: q.name, Text: lrbPrefix + q.body}
	}
	return out
}
