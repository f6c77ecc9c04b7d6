package catalog

import (
	"context"
	"fmt"
	"sort"
	"time"

	"lusail/internal/client"
	"lusail/internal/erh"
	"lusail/internal/federation"
	"lusail/internal/obs"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
)

// BuildSummary summarizes one endpoint with two requests: a COUNT of its
// triples and one full scan that feeds every statistic and sketch. When
// the scan returns fewer rows than the COUNT (a server-side result cap),
// the summary is marked Truncated and will prove relevance but never
// irrelevance.
func BuildSummary(ctx context.Context, ep client.Endpoint) (*Summary, error) {
	start := time.Now()
	sum := &Summary{
		Endpoint:   ep.Name(),
		BuiltAt:    start,
		Predicates: map[string]*PredicateStat{},
		Classes:    map[string]int64{},
	}

	total, totalKnown, err := client.Count(ctx, ep, countAllQuery())
	if err != nil {
		return nil, fmt.Errorf("catalog: counting %s: %w", ep.Name(), err)
	}

	res, err := client.Collect(ctx, ep, scanQuery())
	if err != nil {
		return nil, fmt.Errorf("catalog: scanning %s: %w", ep.Name(), err)
	}
	si, pi, oi := res.VarIndex("s"), res.VarIndex("p"), res.VarIndex("o")
	if si < 0 || pi < 0 || oi < 0 {
		return nil, fmt.Errorf("catalog: endpoint %s returned unusable scan result", ep.Name())
	}

	type predAccum struct {
		stat     PredicateStat
		subjects map[string]struct{}
		objects  map[string]struct{}
		subjAuth map[string]struct{}
		objAuth  map[string]struct{}
	}
	accum := map[string]*predAccum{}
	for _, row := range res.Rows {
		sum.Triples++
		pred := row[pi].Value
		pa, ok := accum[pred]
		if !ok {
			pa = &predAccum{
				subjects: map[string]struct{}{},
				objects:  map[string]struct{}{},
				subjAuth: map[string]struct{}{},
				objAuth:  map[string]struct{}{},
			}
			accum[pred] = pa
		}
		pa.stat.Triples++
		subj, obj := row[si], row[oi]
		pa.subjects[subj.String()] = struct{}{}
		pa.objects[obj.String()] = struct{}{}
		if subj.IsIRI() {
			pa.subjAuth[Authority(subj.Value)] = struct{}{}
		}
		switch {
		case obj.IsIRI():
			pa.objAuth[Authority(obj.Value)] = struct{}{}
			if pred == rdf.RDFType {
				sum.Classes[obj.Value]++
			}
		case obj.IsLiteral():
			pa.stat.LiteralObjects++
		}
	}
	for pred, pa := range accum {
		pa.stat.Subjects = int64(len(pa.subjects))
		pa.stat.Objects = int64(len(pa.objects))
		pa.stat.SubjAuthorities = sortedKeys(pa.subjAuth)
		pa.stat.ObjAuthorities = sortedKeys(pa.objAuth)
		stat := pa.stat
		sum.Predicates[pred] = &stat
	}

	sum.Capabilities.MaxResultRows = int64(len(res.Rows))
	// The scan is complete only when the endpoint's own COUNT confirms it;
	// a failed or malformed COUNT leaves completeness unproven, so the
	// summary stays partial (it will never prune).
	sum.Capabilities.Truncated = !totalKnown || int64(total) != sum.Triples

	sum.BuildDuration = time.Since(start)
	obs.Default().
		Histogram(obs.MetricCatalogBuildSeconds, "time to build one endpoint summary", obs.LatencyBuckets).
		Observe(sum.BuildDuration.Seconds())
	return sum, nil
}

func countAllQuery() string {
	return sparql.NewCount("lusail_c", sparql.TriplePattern{S: sparql.Var("s"), P: sparql.Var("p"), O: sparql.Var("o")}).String()
}

func scanQuery() string {
	q := sparql.NewSelect("s", "p", "o")
	q.Where.Elements = append(q.Where.Elements, sparql.TriplePattern{
		S: sparql.Var("s"), P: sparql.Var("p"), O: sparql.Var("o"),
	})
	return q.String()
}

func sortedKeys(set map[string]struct{}) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Build summarizes every endpoint of the federation concurrently over the
// pool and stores the results. Endpoints that fail keep their previous
// summary (if any); the joined errors are returned after all endpoints
// were attempted.
func Build(ctx context.Context, fed *federation.Federation, pool *erh.Pool, st *Store) error {
	eps := fed.Endpoints()
	names := make([]string, len(eps))
	for i, ep := range eps {
		names[i] = ep.Name()
	}
	return buildEndpoints(ctx, fed, pool, st, names)
}

// Refresh rebuilds only the summaries that are missing or older than the
// store's TTL, returning how many were rebuilt.
func Refresh(ctx context.Context, fed *federation.Federation, pool *erh.Pool, st *Store) (int, error) {
	stale := st.Stale(fed.Names())
	if len(stale) == 0 {
		return 0, nil
	}
	return len(stale), buildEndpoints(ctx, fed, pool, st, stale)
}

func buildEndpoints(ctx context.Context, fed *federation.Federation, pool *erh.Pool, st *Store, names []string) error {
	refreshes := obs.Default().Counter(obs.MetricCatalogRefreshes, "endpoint summaries (re)built")
	return pool.ForEach(ctx, len(names), func(i int) error {
		ep := fed.Get(names[i])
		if ep == nil {
			return fmt.Errorf("catalog: unknown endpoint %q", names[i])
		}
		sum, err := BuildSummary(ctx, ep)
		if err != nil {
			return err
		}
		st.Put(sum)
		refreshes.Inc()
		return nil
	})
}
