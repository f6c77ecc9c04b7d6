package catalog

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"
	"time"

	"lusail/internal/client"
	"lusail/internal/erh"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

func iri(host, local string) rdf.Term {
	return rdf.NewIRI("http://" + host + "/" + local)
}

// testFed mirrors the cross-authority federations of the paper's
// experiments: two endpoints with disjoint URI authorities plus one
// interlink from drugbank into kegg.
func testFed() *federation.Federation {
	drugs := []rdf.Triple{
		{S: iri("drugbank.org", "d1"), P: rdf.NewIRI(rdf.RDFType), O: iri("drugbank.org", "Drug")},
		{S: iri("drugbank.org", "d1"), P: iri("drugbank.org", "name"), O: rdf.NewLiteral("aspirin")},
		{S: iri("drugbank.org", "d1"), P: iri("drugbank.org", "target"), O: iri("kegg.org", "k9")},
		{S: iri("drugbank.org", "d2"), P: rdf.NewIRI(rdf.RDFType), O: iri("drugbank.org", "Drug")},
		{S: iri("drugbank.org", "d2"), P: iri("drugbank.org", "name"), O: rdf.NewLiteral("ibuprofen")},
	}
	kegg := []rdf.Triple{
		{S: iri("kegg.org", "k9"), P: iri("kegg.org", "pathway"), O: rdf.NewLiteral("pw1")},
		{S: iri("kegg.org", "k10"), P: iri("kegg.org", "pathway"), O: rdf.NewLiteral("pw2")},
	}
	return federation.MustNew(
		client.NewInProcess("drugbank", store.NewFromTriples(drugs)),
		client.NewInProcess("kegg", store.NewFromTriples(kegg)),
	)
}

func TestAuthority(t *testing.T) {
	tests := []struct{ in, want string }{
		{"http://drugbank.org/d1", "http://drugbank.org"},
		{"http://kegg.org/pathway/x", "http://kegg.org"},
		{"urn:isbn:12345", "urn:isbn"},
		{"noscheme/path", "noscheme"},
		{"opaque", "opaque"},
	}
	for _, tc := range tests {
		if got := Authority(tc.in); got != tc.want {
			t.Errorf("Authority(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBuildSummary(t *testing.T) {
	fed := testFed()
	sum, err := BuildSummary(context.Background(), fed.Get("drugbank"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Endpoint != "drugbank" || sum.Triples != 5 {
		t.Fatalf("summary = %q/%d triples, want drugbank/5", sum.Endpoint, sum.Triples)
	}
	if sum.Capabilities.Truncated {
		t.Error("complete scan marked Truncated")
	}
	if got := sum.Classes["http://drugbank.org/Drug"]; got != 2 {
		t.Errorf("Drug instances = %d, want 2", got)
	}
	ps := sum.Predicates["http://drugbank.org/name"]
	if ps == nil || ps.Triples != 2 || ps.Subjects != 2 || ps.LiteralObjects != 2 {
		t.Fatalf("name stat = %+v", ps)
	}
	tgt := sum.Predicates["http://drugbank.org/target"]
	if tgt == nil || !reflect.DeepEqual(tgt.ObjAuthorities, []string{"http://kegg.org"}) {
		t.Errorf("target obj authorities = %+v", tgt)
	}
	if sum.BuildDuration <= 0 {
		t.Error("BuildDuration not recorded")
	}
}

func TestSummaryDecide(t *testing.T) {
	fed := testFed()
	db, err := BuildSummary(context.Background(), fed.Get("drugbank"))
	if err != nil {
		t.Fatal(err)
	}
	v, c := sparql.Var, sparql.IRI
	tests := []struct {
		name string
		tp   sparql.TriplePattern
		want TierDecision
	}{
		{"known predicate", sparql.TriplePattern{S: v("s"), P: c("http://drugbank.org/name"), O: v("o")}, TierRelevant},
		{"unknown predicate", sparql.TriplePattern{S: v("s"), P: c("http://kegg.org/pathway"), O: v("o")}, TierIrrelevant},
		{"known class", sparql.TriplePattern{S: v("s"), P: c(rdf.RDFType), O: c("http://drugbank.org/Drug")}, TierRelevant},
		{"unknown class", sparql.TriplePattern{S: v("s"), P: c(rdf.RDFType), O: c("http://kegg.org/Pathway")}, TierIrrelevant},
		{"subject authority match", sparql.TriplePattern{S: c("http://drugbank.org/d2"), P: c("http://drugbank.org/name"), O: v("o")}, TierRelevant},
		{"subject authority miss", sparql.TriplePattern{S: c("http://elsewhere.org/x"), P: c("http://drugbank.org/name"), O: v("o")}, TierIrrelevant},
		{"object authority match", sparql.TriplePattern{S: v("s"), P: c("http://drugbank.org/target"), O: c("http://kegg.org/k10")}, TierRelevant},
		{"object authority miss", sparql.TriplePattern{S: v("s"), P: c("http://drugbank.org/target"), O: c("http://elsewhere.org/x")}, TierIrrelevant},
		{"literal object on literal predicate", sparql.TriplePattern{S: v("s"), P: c("http://drugbank.org/name"), O: sparql.Const(rdf.NewLiteral("aspirin"))}, TierRelevant},
		{"literal object on IRI-only predicate", sparql.TriplePattern{S: v("s"), P: c("http://drugbank.org/target"), O: sparql.Const(rdf.NewLiteral("x"))}, TierIrrelevant},
		{"variable predicate", sparql.TriplePattern{S: v("s"), P: v("p"), O: v("o")}, TierRelevant},
		{"variable predicate, foreign subject", sparql.TriplePattern{S: c("http://elsewhere.org/x"), P: v("p"), O: v("o")}, TierIrrelevant},
	}
	for _, tc := range tests {
		if got := db.Decide(tc.tp); got != tc.want {
			t.Errorf("%s: Decide = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTruncatedSummaryNeverPrunes(t *testing.T) {
	fed := testFed()
	db, err := BuildSummary(context.Background(), fed.Get("drugbank"))
	if err != nil {
		t.Fatal(err)
	}
	db.Capabilities.Truncated = true
	v, c := sparql.Var, sparql.IRI
	// What the partial scan saw is still a proof of relevance...
	tp := sparql.TriplePattern{S: v("s"), P: c("http://drugbank.org/name"), O: v("o")}
	if got := db.Decide(tp); got != TierRelevant {
		t.Errorf("seen predicate on truncated summary: %v, want relevant", got)
	}
	// ...but absence proves nothing.
	tp = sparql.TriplePattern{S: v("s"), P: c("http://kegg.org/pathway"), O: v("o")}
	if got := db.Decide(tp); got != TierUnknown {
		t.Errorf("unseen predicate on truncated summary: %v, want unknown", got)
	}
	// And cardinalities are no longer trustworthy.
	if _, ok := db.Cardinality(sparql.TriplePattern{S: v("s"), P: c("http://drugbank.org/name"), O: v("o")}); ok {
		t.Error("truncated summary answered a cardinality")
	}
}

func TestSummaryCardinality(t *testing.T) {
	fed := testFed()
	db, err := BuildSummary(context.Background(), fed.Get("drugbank"))
	if err != nil {
		t.Fatal(err)
	}
	v, c := sparql.Var, sparql.IRI
	tests := []struct {
		name   string
		tp     sparql.TriplePattern
		want   float64
		wantOK bool
	}{
		{"(var p var)", sparql.TriplePattern{S: v("s"), P: c("http://drugbank.org/name"), O: v("o")}, 2, true},
		{"(const p var)", sparql.TriplePattern{S: c("http://drugbank.org/d1"), P: c("http://drugbank.org/name"), O: v("o")}, 1, true},
		{"(var p const)", sparql.TriplePattern{S: v("s"), P: c("http://drugbank.org/target"), O: c("http://kegg.org/k9")}, 1, true},
		{"absent predicate", sparql.TriplePattern{S: v("s"), P: c("http://kegg.org/pathway"), O: v("o")}, 0, true},
		{"class count", sparql.TriplePattern{S: v("s"), P: c(rdf.RDFType), O: c("http://drugbank.org/Drug")}, 2, true},
		{"variable predicate", sparql.TriplePattern{S: v("s"), P: v("p"), O: v("o")}, 0, false},
	}
	for _, tc := range tests {
		got, ok := db.Cardinality(tc.tp)
		if ok != tc.wantOK || (ok && got != tc.want) {
			t.Errorf("%s: Cardinality = (%v, %v), want (%v, %v)", tc.name, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestBuildAndStoreRoundtrip(t *testing.T) {
	fed := testFed()
	path := t.TempDir() + "/catalog.json"
	st := NewStore(path, time.Hour)
	if err := Build(context.Background(), fed, erh.New(4), st); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.Endpoints(), []string{"drugbank", "kegg"}) {
		t.Fatalf("reloaded endpoints = %v", re.Endpoints())
	}
	orig, _ := st.Summary("drugbank")
	got, ok := re.Summary("drugbank")
	if !ok || !reflect.DeepEqual(got.Predicates, orig.Predicates) || got.Triples != orig.Triples {
		t.Errorf("reloaded summary differs:\n got %+v\nwant %+v", got, orig)
	}

	// The reloaded store answers tier decisions identically.
	tp := sparql.TriplePattern{S: sparql.Var("s"), P: sparql.IRI("http://kegg.org/pathway"), O: sparql.Var("o")}
	if d := re.Decide(tp, "drugbank"); d != TierIrrelevant {
		t.Errorf("reloaded Decide(drugbank) = %v, want irrelevant", d)
	}
	if d := re.Decide(tp, "kegg"); d != TierRelevant {
		t.Errorf("reloaded Decide(kegg) = %v, want relevant", d)
	}
}

func TestOpenMissingAndVersionMismatch(t *testing.T) {
	st, err := Open(t.TempDir()+"/nope.json", time.Hour)
	if err != nil || st.Len() != 0 {
		t.Fatalf("missing file: (%v, %v), want empty store", st.Len(), err)
	}

	fed := testFed()
	path := t.TempDir() + "/catalog.json"
	st = NewStore(path, time.Hour)
	if err := Build(context.Background(), fed, erh.New(4), st); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	// Bump the version: summaries must be discarded, not misread.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`"version": 1`), []byte(`"version": 99`), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 {
		t.Errorf("version-mismatched catalog kept %d summaries", re.Len())
	}
}

func TestStoreTTL(t *testing.T) {
	fed := testFed()
	st := NewStore("", time.Hour)
	if err := Build(context.Background(), fed, erh.New(4), st); err != nil {
		t.Fatal(err)
	}
	tp := sparql.TriplePattern{S: sparql.Var("s"), P: sparql.IRI("http://kegg.org/pathway"), O: sparql.Var("o")}
	if d := st.Decide(tp, "drugbank"); d != TierIrrelevant {
		t.Fatalf("fresh Decide = %v, want irrelevant", d)
	}
	if _, ok := st.Cardinality(tp, "kegg"); !ok {
		t.Fatal("fresh store should answer cardinality")
	}
	if stale := st.Stale(fed.Names()); len(stale) != 0 {
		t.Fatalf("fresh store reports stale endpoints %v", stale)
	}

	// Two hours later everything is stale: decisions fall back to unknown,
	// cardinalities to probes, and Refresh rebuilds both summaries.
	st.setClock(func() time.Time { return time.Now().Add(2 * time.Hour) })
	if d := st.Decide(tp, "drugbank"); d != TierUnknown {
		t.Errorf("stale Decide = %v, want unknown", d)
	}
	if _, ok := st.Cardinality(tp, "kegg"); ok {
		t.Error("stale store answered a cardinality")
	}
	if stale := st.Stale(fed.Names()); len(stale) != 2 {
		t.Errorf("stale = %v, want both endpoints", stale)
	}
	n, err := Refresh(context.Background(), fed, erh.New(4), st)
	if err != nil || n != 2 {
		t.Fatalf("Refresh = (%d, %v), want (2, nil)", n, err)
	}
	// The summaries were rebuilt at wall-clock now; seen from wall-clock
	// now they are fresh again.
	st.setClock(time.Now)
	if stale := st.Stale(fed.Names()); len(stale) != 0 {
		t.Errorf("post-refresh stale = %v", stale)
	}
	n, err = Refresh(context.Background(), fed, erh.New(4), st)
	if err != nil || n != 0 {
		t.Errorf("idempotent Refresh = (%d, %v), want (0, nil)", n, err)
	}
}

// TestStoreRace exercises concurrent lookups during a refresh; run with
// -race.
func TestStoreRace(t *testing.T) {
	fed := testFed()
	st := NewStore("", time.Hour)
	if err := Build(context.Background(), fed, erh.New(4), st); err != nil {
		t.Fatal(err)
	}
	tp := sparql.TriplePattern{S: sparql.Var("s"), P: sparql.IRI("http://kegg.org/pathway"), O: sparql.Var("o")}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := Build(context.Background(), fed, erh.New(2), st); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		st.Decide(tp, "drugbank")
		st.Cardinality(tp, "kegg")
		st.Fresh("kegg")
		st.Endpoints()
	}
	<-done
}
