package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/obs"
	"lusail/internal/sparql"
)

// fileVersion guards the on-disk format; bump it when Summary changes
// incompatibly so old catalogs are rebuilt rather than misread.
const fileVersion = 1

// file is the on-disk shape of a catalog.
type file struct {
	Version   int        `json:"version"`
	SavedAt   time.Time  `json:"saved_at"`
	Summaries []*Summary `json:"summaries"`
}

// Store holds the endpoint summaries, answers tier decisions and
// cardinality estimates, and persists itself as JSON. It is safe for
// concurrent use: lookups may race with a background refresh.
type Store struct {
	mu         sync.RWMutex
	byEndpoint map[string]*Summary
	path       string        // "" = in-memory only
	ttl        time.Duration // <=0 = summaries never go stale
	now        func() time.Time

	// epoch counts summary mutations (Put, Drop, including background
	// refreshes). Plans and caches keyed on it are invalidated the moment
	// the catalog's answers could change.
	epoch atomic.Uint64

	staleLookups *obs.Counter
}

// Epoch returns the catalog's mutation epoch: it increases on every Put or
// Drop, so equal epochs imply identical tier decisions and cardinality
// answers (modulo TTL expiry, which callers bound separately).
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// NewStore returns an empty catalog. path may be empty for an in-memory
// catalog; ttl <= 0 disables staleness (summaries stay fresh forever).
func NewStore(path string, ttl time.Duration) *Store {
	return &Store{
		byEndpoint:   map[string]*Summary{},
		path:         path,
		ttl:          ttl,
		now:          time.Now,
		staleLookups: obs.Default().Counter(obs.MetricCatalogStaleLookups, "catalog lookups that found only a stale summary"),
	}
}

// Open loads the catalog at path, or returns an empty store when the file
// does not exist yet. A version mismatch discards the stored summaries
// (they will be rebuilt) rather than failing.
func Open(path string, ttl time.Duration) (*Store, error) {
	s := NewStore(path, ttl)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: reading %s: %w", path, err)
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("catalog: parsing %s: %w", path, err)
	}
	if f.Version != fileVersion {
		return s, nil
	}
	for _, sum := range f.Summaries {
		if sum != nil && sum.Endpoint != "" {
			s.byEndpoint[sum.Endpoint] = sum
		}
	}
	return s, nil
}

// setClock overrides the store's clock (tests).
func (s *Store) setClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// TTL returns the configured staleness bound (<=0: never stale).
func (s *Store) TTL() time.Duration { return s.ttl }

// Path returns the persistence path ("" for in-memory catalogs).
func (s *Store) Path() string { return s.path }

// Len returns the number of summaries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byEndpoint)
}

// Endpoints returns the summarized endpoint names, sorted.
func (s *Store) Endpoints() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byEndpoint))
	for name := range s.byEndpoint {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Summary returns the stored summary for the endpoint regardless of
// freshness (inspection and refresh decisions).
func (s *Store) Summary(endpoint string) (*Summary, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sum, ok := s.byEndpoint[endpoint]
	return sum, ok
}

// Fresh returns the summary only when it exists and is within TTL.
func (s *Store) Fresh(endpoint string) (*Summary, bool) {
	s.mu.RLock()
	sum, ok := s.byEndpoint[endpoint]
	now, ttl := s.now(), s.ttl
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if !sum.Fresh(now, ttl) {
		s.staleLookups.Add(1)
		return nil, false
	}
	return sum, true
}

// Stale reports the subset of the given endpoints whose summary is missing
// or older than TTL, in input order.
func (s *Store) Stale(endpoints []string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.now()
	var out []string
	for _, name := range endpoints {
		if !s.byEndpoint[name].Fresh(now, s.ttl) {
			out = append(out, name)
		}
	}
	return out
}

// Put stores (or replaces) a summary.
func (s *Store) Put(sum *Summary) {
	if sum == nil || sum.Endpoint == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byEndpoint[sum.Endpoint] = sum
	s.epoch.Add(1)
}

// Drop removes the endpoint's summary, if any.
func (s *Store) Drop(endpoint string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byEndpoint, endpoint)
	s.epoch.Add(1)
}

// Decide classifies the endpoint for the pattern: a fresh summary answers
// from its sketches; a missing or stale one yields TierUnknown so source
// selection falls back to a probe.
func (s *Store) Decide(tp sparql.TriplePattern, endpoint string) TierDecision {
	sum, ok := s.Fresh(endpoint)
	if !ok {
		return TierUnknown
	}
	return sum.Decide(tp)
}

// Cardinality estimates the pattern's solution count at the endpoint from
// a fresh summary; ok=false asks the caller to issue a COUNT probe.
func (s *Store) Cardinality(tp sparql.TriplePattern, endpoint string) (float64, bool) {
	sum, ok := s.Fresh(endpoint)
	if !ok {
		return 0, false
	}
	return sum.Cardinality(tp)
}

// Save writes the catalog to its path atomically (temp file + rename).
// Saving an in-memory catalog (empty path) is a no-op.
func (s *Store) Save() error {
	if s.path == "" {
		return nil
	}
	return s.SaveTo(s.path)
}

// SaveTo writes the catalog as JSON to the given path.
func (s *Store) SaveTo(path string) error {
	s.mu.RLock()
	f := file{Version: fileVersion, SavedAt: s.now().UTC()}
	for _, name := range s.endpointsLocked() {
		f.Summaries = append(f.Summaries, s.byEndpoint[name])
	}
	s.mu.RUnlock()

	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: encoding: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".catalog-*.json")
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("catalog: writing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("catalog: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}

// endpointsLocked returns sorted names; callers hold at least a read lock.
func (s *Store) endpointsLocked() []string {
	out := make([]string, 0, len(s.byEndpoint))
	for name := range s.byEndpoint {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
