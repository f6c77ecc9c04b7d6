package diskstore_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"lusail/internal/diskstore"
	"lusail/internal/rdf"
)

// BenchmarkPointLookup probes single triples of a store with default
// (4,096-triple) blocks behind a 1 MiB cache: the bound-join access path,
// where the work per probe is finding a triple inside its block.
func BenchmarkPointLookup(b *testing.B) {
	data := randomTriples(rand.New(rand.NewSource(2)), 40000)
	path := filepath.Join(b.TempDir(), "bench.lds")
	if err := diskstore.Build(path, data, diskstore.BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	ds, err := diskstore.Open(path, diskstore.Options{CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	rng := rand.New(rand.NewSource(3))
	probes := make([]rdf.Triple, 1024)
	for i := range probes {
		probes[i] = data[rng.Intn(len(data))]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := probes[i%len(probes)]
		if !ds.Contains(&t.S, &t.P, &t.O) {
			b.Fatalf("stored triple %v not found", t)
		}
	}
}
