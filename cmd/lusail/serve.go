package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"lusail/internal/server"
)

// runServe serves the federation as a long-running, multi-tenant SPARQL
// endpoint (the lusaild service tier of internal/server) until ctx is
// cancelled, then drains: the listener closes and in-flight queries
// finish, up to -drain-timeout.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("serve", stderr)
	ef := addEngineFlags(fs, "degrade")
	cfg := server.Config{Tenants: map[string]server.TenantConfig{}, APIKeys: map[string]string{}}
	fs.Func("tenant", "tenant quota as name=rate:burst:concurrency:queue (repeatable; e.g. gold=10:20:8:16)", func(spec string) error {
		name, quota, err := parseTenant(spec)
		if err == nil {
			cfg.Tenants[name] = quota
		}
		return err
	})
	fs.Func("api-key", "API key mapping as key=tenant (repeatable)", func(spec string) error {
		key, tenant, ok := strings.Cut(spec, "=")
		if !ok {
			return errors.New("want key=tenant")
		}
		cfg.APIKeys[key] = tenant
		return nil
	})
	addr := fs.String("addr", ":8094", "listen address")
	fs.IntVar(&cfg.ResultCacheSize, "result-cache", 128, "max cached results (0 disables the result cache)")
	fs.DurationVar(&cfg.ResultCacheTTL, "result-cache-ttl", 30*time.Second, "result cache entry lifetime")
	fs.Float64Var(&cfg.DefaultTenant.RatePerSec, "rate", 0, "default tenant rate quota in queries/second (0 = unlimited)")
	fs.IntVar(&cfg.DefaultTenant.Burst, "burst", 0, "default tenant burst (0 = derived from -rate)")
	fs.IntVar(&cfg.DefaultTenant.MaxConcurrent, "concurrency", 4, "default tenant concurrent-query limit")
	fs.IntVar(&cfg.DefaultTenant.MaxQueue, "queue", 0, "default tenant wait-queue depth (0 = 2x concurrency)")
	fs.DurationVar(&cfg.QueryTimeout, "query-timeout", 5*time.Minute, "per-query execution timeout")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if err := ef.check(); err != nil {
		return usage(fs, err)
	}
	cfg.DisableResultCache = cfg.ResultCacheSize == 0

	eng, err := ef.engine(stderr, false)
	if err != nil {
		return fail(fs, err)
	}
	cfg.Engine = eng
	srv, err := server.Start(*addr, cfg)
	if err != nil {
		return fail(fs, err)
	}
	fmt.Fprintf(stderr, "%s: serving %d endpoint(s) at %s (epoch %s)\n", fs.Name(), len(*ef.endpoints), srv.URL, eng.Epoch())

	<-ctx.Done()
	fmt.Fprintf(stderr, "%s: draining (up to %v)...\n", fs.Name(), *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
		return fail(fs, fmt.Errorf("drain incomplete: %w", err))
	}
	fmt.Fprintf(stderr, "%s: drained cleanly\n", fs.Name())
	return 0
}

// parseTenant parses name=rate:burst:concurrency:queue; trailing quota
// fields may be empty or left out.
func parseTenant(spec string) (string, server.TenantConfig, error) {
	var quota server.TenantConfig
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", quota, errors.New("want name=rate:burst:concurrency:queue")
	}
	fields := strings.Split(rest, ":")
	if len(fields) > 4 {
		return "", quota, errors.New("at most 4 quota fields")
	}
	ints := []*int{nil, &quota.Burst, &quota.MaxConcurrent, &quota.MaxQueue}
	for i, field := range fields {
		if field == "" {
			continue
		}
		var err error
		if i == 0 {
			quota.RatePerSec, err = strconv.ParseFloat(field, 64)
		} else {
			*ints[i], err = strconv.Atoi(field)
		}
		if err != nil {
			return "", quota, fmt.Errorf("quota field %d: %w", i+1, err)
		}
	}
	return name, quota, nil
}
