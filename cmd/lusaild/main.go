// Command lusaild serves a Lusail federation as a long-running, multi-tenant
// SPARQL endpoint: the demo scenario of many concurrent users querying one
// long-lived federation.
//
// Usage:
//
//	lusaild -addr :8094 \
//	        -endpoint u0=http://host1:8081/sparql \
//	        -endpoint u1=http://host2:8081/sparql
//
//	curl 'http://localhost:8094/sparql?query=SELECT+?s+WHERE+{?s+?p+?o}+LIMIT+5'
//
// The service exposes:
//
//	/sparql           SPARQL 1.1 protocol (GET ?query=, POST form, POST
//	                  application/sparql-query); results stream as
//	                  sparql-results+json (CSV/TSV/XML via Accept;
//	                  ASK always JSON)
//	/healthz          liveness + federation shape
//	/metrics          Prometheus text (plan/result cache, admission, ...)
//	/admin/plancache  cached plans and the current epoch
//	/admin/tenants    per-tenant quota state
//	/debug/pprof/     live CPU/heap/goroutine profiles
//
// Query plans are cached across requests keyed on the normalized query text
// and invalidated when the catalog changes, so repeated query shapes skip
// decomposition and GJV analysis. Tenants are identified by the
// X-Lusail-Tenant header (or an API key mapped with -api-key); each tenant
// gets a token-bucket rate quota and a bounded concurrency gate. Over-rate
// requests get a structured JSON 429, and requests beyond the wait queue
// are shed with 503. SIGINT/SIGTERM drains gracefully: the listener closes,
// in-flight queries finish (up to -drain-timeout), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lusail"
	"lusail/internal/core"
	"lusail/internal/federation"
	"lusail/internal/server"
)

type repeatable []string

func (r *repeatable) String() string { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	var endpoints, tenants, apiKeys repeatable
	flag.Var(&endpoints, "endpoint", "endpoint as name=url (repeatable)")
	flag.Var(&tenants, "tenant", "tenant quota as name=rate:burst:concurrency:queue (repeatable; e.g. gold=10:20:8:16)")
	flag.Var(&apiKeys, "api-key", "API key mapping as key=tenant (repeatable)")
	addr := flag.String("addr", ":8094", "listen address")
	planCache := flag.Int("plan-cache", 256, "max cached query plans (0 disables the plan cache)")
	resultCache := flag.Int("result-cache", 128, "max cached results (0 disables the result cache)")
	resultTTL := flag.Duration("result-cache-ttl", 30*time.Second, "result cache entry lifetime")
	defRate := flag.Float64("rate", 0, "default tenant rate quota in queries/second (0 = unlimited)")
	defBurst := flag.Int("burst", 0, "default tenant burst (0 = derived from -rate)")
	defConcurrency := flag.Int("concurrency", 4, "default tenant concurrent-query limit")
	defQueue := flag.Int("queue", 0, "default tenant wait-queue depth (0 = 2x concurrency)")
	queryTimeout := flag.Duration("query-timeout", 5*time.Minute, "per-query execution timeout")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	noSAPE := flag.Bool("disable-sape", false, "run with LADE only (no selectivity-aware execution)")
	catalogPath := flag.String("catalog", "", "endpoint catalog file (built with lusail-catalog) for probe-free planning")
	catalogTTL := flag.Duration("catalog-ttl", 24*time.Hour, "treat catalog summaries older than this as stale (0 = never stale)")
	onFailure := flag.String("on-failure", "degrade", "endpoint failure policy: fail or degrade (partial results)")
	flag.Parse()

	if len(endpoints) == 0 {
		log.Fatal("lusaild: at least one -endpoint name=url is required")
	}
	var eps []lusail.Endpoint
	for _, spec := range endpoints {
		name, url, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("lusaild: invalid -endpoint %q, want name=url", spec)
		}
		eps = append(eps, lusail.Instrument(lusail.NewHTTPEndpoint(name, url), nil))
	}

	opts := lusail.DefaultOptions()
	opts.DisableSAPE = *noSAPE
	switch *onFailure {
	case "fail":
	case "degrade":
		opts.OnEndpointFailure = lusail.Degrade
		opts.Resilience = lusail.DefaultResilience()
	default:
		log.Fatalf("lusaild: invalid -on-failure %q, want fail or degrade", *onFailure)
	}
	if *catalogPath != "" {
		cat, err := lusail.OpenCatalog(*catalogPath, *catalogTTL)
		if err != nil {
			log.Fatalf("lusaild: %v", err)
		}
		opts.Catalog = cat
	}

	fed, err := federation.New(eps...)
	if err != nil {
		log.Fatalf("lusaild: %v", err)
	}
	eng, err := core.New(fed, opts)
	if err != nil {
		log.Fatalf("lusaild: %v", err)
	}

	cfg := server.Config{
		Engine:             eng,
		PlanCacheSize:      *planCache,
		DisablePlanCache:   *planCache == 0,
		ResultCacheSize:    *resultCache,
		ResultCacheTTL:     *resultTTL,
		DisableResultCache: *resultCache == 0,
		DefaultTenant: server.TenantConfig{
			RatePerSec:    *defRate,
			Burst:         *defBurst,
			MaxConcurrent: *defConcurrency,
			MaxQueue:      *defQueue,
		},
		Tenants:      map[string]server.TenantConfig{},
		APIKeys:      map[string]string{},
		QueryTimeout: *queryTimeout,
	}
	for _, spec := range tenants {
		name, quota, err := parseTenant(spec)
		if err != nil {
			log.Fatalf("lusaild: %v", err)
		}
		cfg.Tenants[name] = quota
	}
	for _, spec := range apiKeys {
		key, tenant, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("lusaild: invalid -api-key %q, want key=tenant", spec)
		}
		cfg.APIKeys[key] = tenant
	}

	srv, err := server.Start(*addr, cfg)
	if err != nil {
		log.Fatalf("lusaild: %v", err)
	}
	log.Printf("lusaild: serving %d endpoint(s) at %s (epoch %s)", fed.Size(), srv.URL, eng.Epoch())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	log.Printf("lusaild: draining (up to %v)...", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("lusaild: drain incomplete: %v", err)
		_ = srv.Close()
		os.Exit(1)
	}
	log.Printf("lusaild: drained cleanly")
}

// parseTenant parses name=rate:burst:concurrency:queue (trailing fields
// optional).
func parseTenant(spec string) (string, server.TenantConfig, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", server.TenantConfig{}, fmt.Errorf("invalid -tenant %q, want name=rate:burst:concurrency:queue", spec)
	}
	parts := strings.Split(rest, ":")
	if len(parts) > 4 {
		return "", server.TenantConfig{}, fmt.Errorf("invalid -tenant %q: at most 4 quota fields", spec)
	}
	var quota server.TenantConfig
	for i, p := range parts {
		if p == "" {
			continue
		}
		switch i {
		case 0:
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return "", server.TenantConfig{}, fmt.Errorf("invalid -tenant %q rate: %w", spec, err)
			}
			quota.RatePerSec = v
		default:
			v, err := strconv.Atoi(p)
			if err != nil {
				return "", server.TenantConfig{}, fmt.Errorf("invalid -tenant %q field %d: %w", spec, i, err)
			}
			switch i {
			case 1:
				quota.Burst = v
			case 2:
				quota.MaxConcurrent = v
			case 3:
				quota.MaxQueue = v
			}
		}
	}
	return name, quota, nil
}
