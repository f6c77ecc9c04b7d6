package catalog_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/erh"
	"lusail/internal/federation"
	"lusail/internal/sparql"
)

// TestSelectorWithStore runs the real two-tier stack end to end: a fresh
// catalog answers source selection without traffic, the same catalog gone
// stale falls back to probes, and both tiers agree on the sources.
func TestSelectorWithStore(t *testing.T) {
	var m client.Metrics
	base := catalog.TestFed()
	var eps []client.Endpoint
	for _, ep := range base.Endpoints() {
		eps = append(eps, client.NewInstrumented(ep, &m))
	}
	fed := federation.MustNew(eps...)

	st := catalog.NewStore("", time.Hour)
	if err := catalog.Build(context.Background(), fed, erh.New(4), st); err != nil {
		t.Fatal(err)
	}
	buildRequests := m.Snapshot().Requests

	opts := core.DefaultOptions()
	opts.Catalog = st
	e := core.MustNew(fed, opts)
	// The pattern's sources, as its one subquery {tp}@[…] shows them.
	sources := func() []string {
		t.Helper()
		q := sparql.MustParse(`SELECT * WHERE { ?s <http://kegg.org/pathway> ?o }`)
		p, err := e.Plan(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		sq := p.Decomposition()[0]
		return strings.Split(strings.TrimSuffix(sq[strings.LastIndex(sq, "@[")+2:], "]"), ",")
	}

	fresh := sources()
	if !reflect.DeepEqual(fresh, []string{"kegg"}) {
		t.Errorf("fresh sources = %v, want [kegg]", fresh)
	}
	if n := m.Snapshot().Requests - buildRequests; n != 0 {
		t.Errorf("fresh catalog issued %d requests, want 0", n)
	}

	// The catalog goes stale: selection must fall back to probes and still
	// find the same sources.
	st.SetClock(func() time.Time { return time.Now().Add(2 * time.Hour) })
	e.ClearCaches()
	before := m.Snapshot().Asks
	if stale := sources(); !reflect.DeepEqual(stale, fresh) {
		t.Errorf("stale-path sources = %v, fresh-path = %v; tiers disagree", stale, fresh)
	}
	if n := m.Snapshot().Asks - before; n != int64(fed.Size()) {
		t.Errorf("stale catalog issued %d source-selection requests, want %d (every endpoint probed)", n, fed.Size())
	}

	// The probed facts were cached: a repeat lookup issues no traffic even
	// though the catalog is still stale.
	before = m.Snapshot().Asks
	sources()
	if n := m.Snapshot().Asks - before; n != 0 {
		t.Errorf("repeat lookup issued %d source-selection requests, want 0 (cache)", n)
	}
}
