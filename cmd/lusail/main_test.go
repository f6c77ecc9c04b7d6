package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	neturl "net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lusail"
)

// joinQuery joins across the two endpoints of testFederation: knows lives
// at a, name at b.
const joinQuery = `SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n }`

// lusailCmd runs the command with args to completion and returns its exit
// code and output.
func lusailCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = dispatch(context.Background(), verbs, usageLine, args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// testFederation serves two library endpoints on ephemeral ports and
// returns their -endpoint flags.
func testFederation(t *testing.T) []string {
	t.Helper()
	iri := lusail.IRI
	data := map[string][]lusail.Triple{
		"a": {{S: iri("http://ex/alice"), P: iri("http://ex/knows"), O: iri("http://ex/bob")}},
		"b": {{S: iri("http://ex/bob"), P: iri("http://ex/name"), O: lusail.Literal("Bob")}},
	}
	var flags []string
	for _, name := range []string{"a", "b"} {
		srv, err := lusail.Serve(name, "127.0.0.1:0", data[name])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		flags = append(flags, "-endpoint", name+"="+srv.URL)
	}
	return flags
}

// syncBuffer is an output stream a running verb writes while the test
// reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// running is a long-lived verb (endpoint or serve) started by startVerb.
type running struct {
	url    string // the SPARQL URL the verb printed
	stderr syncBuffer
	cancel context.CancelFunc
	done   chan int
	once   sync.Once
	code   int
}

// wait returns the verb's exit code once it has returned.
func (r *running) wait() int {
	r.once.Do(func() { r.code = <-r.done })
	return r.code
}

// stop cancels the verb's context and returns its exit code.
func (r *running) stop() int {
	r.cancel()
	return r.wait()
}

var urlPattern = regexp.MustCompile(`http://127\.0\.0\.1:\d+/sparql`)

// startVerb runs a long-lived verb under ctx and returns once it has
// printed the URL it serves.
func startVerb(t *testing.T, ctx context.Context, args ...string) *running {
	t.Helper()
	ctx, cancel := context.WithCancel(ctx)
	r := &running{cancel: cancel, done: make(chan int, 1)}
	var stdout syncBuffer
	go func() { r.done <- dispatch(ctx, verbs, usageLine, args, &stdout, &r.stderr) }()
	t.Cleanup(func() { r.stop() })
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(10 * time.Second)
	for {
		if url := urlPattern.FindString(stdout.String() + r.stderr.String()); url != "" {
			r.url = url
			return r
		}
		select {
		case code := <-r.done:
			r.once.Do(func() { r.code = code })
			t.Fatalf("%v exited %d before serving: %s", args, code, r.stderr.String())
		case <-deadline:
			t.Fatalf("%v printed no URL: %s%s", args, stdout.String(), r.stderr.String())
		case <-tick.C:
		}
	}
}

// get fetches the SPARQL query from url, asking for accept.
func get(t *testing.T, url, query, accept string) string {
	t.Helper()
	req, err := http.NewRequest("GET", url+"?query="+neturl.QueryEscape(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body.String())
	}
	return body.String()
}

// refused reports whether nothing listens at url any more.
func refused(url string) bool {
	resp, err := http.Get(url + "?query=ASK%7B%7D")
	if err == nil {
		resp.Body.Close()
	}
	return err != nil
}

// deadPort returns an address on which nothing listens.
func deadPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestExitCodes pins the run contract: 0 on success, 1 on a runtime
// failure, 2 on a usage error, and every flag checked before any network
// or file side effect. The usage rows pass a -catalog that is a directory,
// or an -admin address that cannot be bound, where a verb that built its
// engine or listener first would fail with 1 instead.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	ep := "a=http://" + deadPort(t) + "/sparql"
	ask := "ASK { ?s ?p ?o }"
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no verb", nil, 2},
		{"unknown verb", []string{"frobnicate"}, 2},
		{"unknown flag", []string{"query", "-nope"}, 2},
		{"help", []string{"query", "-h"}, 0},
		{"missing -endpoint", []string{"query", "-query", ask}, 2},
		{"serve missing -endpoint", []string{"serve", "-addr", "127.0.0.1:0"}, 2},
		{"catalog build missing -endpoint", []string{"catalog", "build", "-catalog", filepath.Join(dir, "c.json")}, 2},
		{"malformed -endpoint", []string{"query", "-endpoint", "a", "-query", ask}, 2},
		{"missing -query", []string{"query", "-endpoint", ep}, 2},
		{"bad -format", []string{"query", "-endpoint", ep, "-catalog", dir, "-format", "jsn", "-query", ask}, 2},
		{"bad -on-failure", []string{"query", "-endpoint", ep, "-catalog", dir, "-on-failure", "retry", "-query", ask}, 2},
		{"serve bad -on-failure", []string{"serve", "-endpoint", ep, "-catalog", dir, "-on-failure", "retry"}, 2},
		{"bad -tenant", []string{"serve", "-endpoint", ep, "-catalog", dir, "-tenant", "bronze"}, 2},
		{"bad -tenant field", []string{"serve", "-endpoint", ep, "-catalog", dir, "-tenant", "bronze=1:x"}, 2},
		{"bad -api-key", []string{"serve", "-endpoint", ep, "-catalog", dir, "-api-key", "k"}, 2},
		{"bad -store", []string{"endpoint", "-store", "tape", "-data", "missing.nt"}, 2},
		{"-repeat 0", []string{"query", "-endpoint", ep, "-catalog", dir, "-admin", "256.0.0.1:1", "-repeat", "0", "-query", ask}, 2},
		{"load missing -out", []string{"load", "missing.nt"}, 2},
		{"datagen bad -benchmark", []string{"datagen", "-benchmark", "tpch", "-out", filepath.Join(dir, "gen")}, 2},
		{"datagen bad -preset", []string{"datagen", "-preset", "1g", "-out", filepath.Join(dir, "gen")}, 2},
		{"unknown catalog verb", []string{"catalog", "prune"}, 2},
		{"unreachable endpoint", []string{"query", "-endpoint", ep, "-timeout", "10s", "-query", ask}, 1},
		{"unreadable catalog", []string{"query", "-endpoint", ep, "-catalog", dir, "-query", ask}, 1},
		{"missing load input", []string{"load", "-out", filepath.Join(dir, "x.lds"), filepath.Join(dir, "missing.nt")}, 1},
		{"missing endpoint data", []string{"endpoint", "-addr", "127.0.0.1:0", "-data", filepath.Join(dir, "missing.nt")}, 1},
		{"missing disk store", []string{"endpoint", "-addr", "127.0.0.1:0", "-store", "disk:" + filepath.Join(dir, "missing.lds")}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, stdout, stderr := lusailCmd(t, tc.args...); code != tc.want {
				t.Errorf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.want, stdout, stderr)
			}
		})
	}
	if _, err := os.Stat(filepath.Join(dir, "gen")); !os.IsNotExist(err) {
		t.Errorf("datagen usage error created its -out directory: %v", err)
	}
}

// TestQueryFormats runs one federated join in every -format.
func TestQueryFormats(t *testing.T) {
	fed := testFederation(t)
	for _, tc := range []struct {
		format string
		want   []string
	}{
		{"table", []string{"x\tn\n<http://ex/alice>\t\"Bob\"\n"}},
		{"tsv", []string{"?x\t?n\n<http://ex/alice>\t\"Bob\"\n"}},
		{"csv", []string{"x,n\nhttp://ex/alice,Bob\n"}},
		{"xml", []string{"<uri>http://ex/alice</uri>", "<literal>Bob</literal>", "</sparql>\n"}},
		{"json", []string{`"value":"http://ex/alice"`, `"value":"Bob"`}},
	} {
		t.Run(tc.format, func(t *testing.T) {
			args := append([]string{"query", "-format", tc.format, "-query", joinQuery}, fed...)
			code, stdout, stderr := lusailCmd(t, args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout, w) {
					t.Errorf("output lacks %q:\n%s", w, stdout)
				}
			}
			if tc.format == "json" && !json.Valid([]byte(stdout)) {
				t.Errorf("invalid JSON:\n%s", stdout)
			}
		})
	}
}

// TestQueryProfiles covers ASK, -repeat, -profile, -explain and
// -trace-out on one engine.
func TestQueryProfiles(t *testing.T) {
	fed := testFederation(t)
	code, stdout, stderr := lusailCmd(t, append([]string{"query", "-query", "ASK { ?x <http://ex/knows> ?y }"}, fed...)...)
	if code != 0 || stdout != "true\n" {
		t.Fatalf("ASK: exit %d, stdout %q, stderr %s", code, stdout, stderr)
	}

	trace := filepath.Join(t.TempDir(), "trace.json")
	args := append([]string{"query", "-repeat", "2", "-profile", "-explain", "-trace-out", trace, "-query", joinQuery}, fed...)
	code, stdout, stderr = lusailCmd(t, args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "<http://ex/alice>") {
		t.Errorf("results missing: %s", stdout)
	}
	for _, w := range []string{"run 2/2: total=", "phases: source-selection=", "== PLAN ==", "== PROFILE ==", "trace written to"} {
		if !strings.Contains(stderr, w) {
			t.Errorf("stderr lacks %q:\n%s", w, stderr)
		}
	}
	var events []map[string]any
	if data, err := os.ReadFile(trace); err != nil || json.Unmarshal(data, &events) != nil || len(events) == 0 {
		t.Errorf("-trace-out wrote no trace events (%v)", err)
	}
}

// writeFile writes text to name under dir and returns its path.
func writeFile(t *testing.T, dir, name, text string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadLineNumbersPerInput pins that a parse error names the line
// within its own input: with three good lines in one.nt, a bad line 2 of
// two.nt is "two.nt: line 2", not the running count "line 5".
func TestLoadLineNumbersPerInput(t *testing.T) {
	dir := t.TempDir()
	one := writeFile(t, dir, "one.nt", "<http://ex/a> <http://ex/p> <http://ex/b> .\n"+
		"<http://ex/b> <http://ex/p> <http://ex/c> .\n"+
		"<http://ex/c> <http://ex/p> <http://ex/d> .\n")
	two := writeFile(t, dir, "two.nt", "<http://ex/d> <http://ex/p> <http://ex/e> .\n"+
		"<http://ex/e> <http://ex/p> .\n")
	out := filepath.Join(dir, "x.lds")
	code, _, stderr := lusailCmd(t, "load", "-quiet", "-out", out, one, two)
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, stderr)
	}
	if want := two + ": line 2:"; !strings.Contains(stderr, want) {
		t.Errorf("stderr %q lacks %q", stderr, want)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a failed load left a store at %s: %v", out, err)
	}
}

// TestDatagenLoadEndpoint walks the disk-store pipeline: datagen writes a
// LUBM university, load builds and verifies a store from it, and the
// memory and disk endpoints over the same data answer a query identically,
// then close their listeners when their context is cancelled.
func TestDatagenLoadEndpoint(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := lusailCmd(t, "datagen", "-benchmark", "lubm", "-universities", "1", "-out", dir)
	if code != 0 || !strings.Contains(stdout, "university0.nt") {
		t.Fatalf("datagen: exit %d: %s%s", code, stdout, stderr)
	}
	nt := filepath.Join(dir, "university0.nt")
	store := filepath.Join(dir, "u0.lds")
	code, stdout, stderr = lusailCmd(t, "load", "-out", store, "-verify", nt)
	if code != 0 || !strings.Contains(stdout, "verify ok") {
		t.Fatalf("load: exit %d: %s%s", code, stdout, stderr)
	}

	mem := startVerb(t, context.Background(), "endpoint", "-addr", "127.0.0.1:0", "-name", "mem", "-data", nt)
	disk := startVerb(t, context.Background(), "endpoint", "-addr", "127.0.0.1:0", "-name", "disk", "-store", "disk:"+store, "-cache", "1")
	const q = `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?x ?y WHERE { ?x ub:advisor ?y } ORDER BY ?x ?y`
	var answers []string
	for _, ep := range []*running{mem, disk} {
		code, stdout, stderr := lusailCmd(t, "query", "-endpoint", "u0="+ep.url, "-format", "tsv", "-query", q)
		if code != 0 || strings.Count(stdout, "\n") < 2 {
			t.Fatalf("query %s: exit %d: %s%s", ep.url, code, stdout, stderr)
		}
		answers = append(answers, stdout)
	}
	if answers[0] != answers[1] {
		t.Errorf("memory and disk endpoints disagree:\n%s\n---\n%s", answers[0], answers[1])
	}
	for _, ep := range []*running{mem, disk} {
		if code := ep.stop(); code != 0 {
			t.Errorf("endpoint %s exited %d on cancel: %s", ep.url, code, ep.stderr.String())
		}
		if !refused(ep.url) {
			t.Errorf("endpoint %s still answers after cancel", ep.url)
		}
	}
}

// TestEndpointStopsOnSIGTERM sends the process SIGTERM under main's
// shutdown context: the endpoint closes its listener and returns 0 rather
// than dying with the signal.
func TestEndpointStopsOnSIGTERM(t *testing.T) {
	data := writeFile(t, t.TempDir(), "d.nt", "<http://ex/a> <http://ex/p> <http://ex/b> .\n")
	ctx, stop := shutdownContext()
	defer stop()
	ep := startVerb(t, ctx, "endpoint", "-addr", "127.0.0.1:0", "-data", data)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := ep.wait(); code != 0 {
		t.Errorf("exit %d on SIGTERM, want 0: %s", code, ep.stderr.String())
	}
	if !refused(ep.url) {
		t.Errorf("endpoint still answers after SIGTERM")
	}
}

// TestServe answers one SELECT over the SPARQL protocol and drains cleanly
// when its context is cancelled.
func TestServe(t *testing.T) {
	fed := testFederation(t)
	srv := startVerb(t, context.Background(), append([]string{"serve", "-addr", "127.0.0.1:0"}, fed...)...)
	body := get(t, srv.url, joinQuery, "application/sparql-results+json")
	if !strings.Contains(body, `"value":"http://ex/alice"`) {
		t.Errorf("SELECT answered %s", body)
	}
	if code := srv.stop(); code != 0 {
		t.Errorf("serve exited %d on cancel: %s", code, srv.stderr.String())
	}
	if !strings.Contains(srv.stderr.String(), "drained cleanly") {
		t.Errorf("serve did not drain: %s", srv.stderr.String())
	}
	if !refused(srv.url) {
		t.Errorf("serve still answers after cancel")
	}
}

// TestCatalog builds, inspects and refreshes a catalog, then plans a query
// from it.
func TestCatalog(t *testing.T) {
	fed := testFederation(t)
	path := filepath.Join(t.TempDir(), "catalog.json")
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{append([]string{"catalog", "build", "-catalog", path}, fed...), []string{"built 2 summaries"}},
		{[]string{"catalog", "inspect", "-catalog", path, "-verbose"}, []string{"endpoint", "yes", "http://ex/knows", "http://ex/name"}},
		{[]string{"catalog", "inspect", "-catalog", path, "-catalog-ttl", "1ns"}, []string{"STALE"}},
		{append([]string{"catalog", "refresh", "-catalog", path, "-catalog-ttl", "0"}, fed...), []string{"refreshed 0 of 2"}},
		{append([]string{"catalog", "refresh", "-catalog", path, "-catalog-ttl", "1ns"}, fed...), []string{"refreshed 2 of 2"}},
		{append([]string{"query", "-catalog", path, "-profile", "-query", joinQuery}, fed...), []string{"<http://ex/alice>\t\"Bob\""}},
	} {
		code, stdout, stderr := lusailCmd(t, tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
		}
		for _, w := range tc.want {
			if !strings.Contains(stdout, w) {
				t.Errorf("%v: stdout lacks %q:\n%s", tc.args, w, stdout)
			}
		}
	}
}
