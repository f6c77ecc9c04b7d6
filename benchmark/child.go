package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lusail/internal/diskstore"
	"lusail/internal/endpoint"
	"lusail/internal/eval"
	"lusail/internal/rdf"
	"lusail/internal/store"
)

// childStats is the body of a child's /bench/stats route. The first group
// is always filled; the second only by a child started with -child-trace;
// the third by /bench/replay.
type childStats struct {
	CPUNs       int64 `json:"cpu_ns"`
	TotalAlloc  int64 `json:"total_alloc"`
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	OpenNs      int64 `json:"open_ns"`

	HandlerNs  int64 `json:"handler_ns"`
	MatchCalls int64 `json:"match_calls"`
	MatchNs    int64 `json:"match_ns"`
	Scanned    int64 `json:"scanned"`

	// Replay of the captured subqueries on eval.New(graph): EvalNs and
	// EvalRows weight each distinct query by how often it was served, so
	// they compare with HandlerNs; Uncaptured counts requests beyond the
	// capture limit.
	EvalNs     int64 `json:"eval_ns"`
	EvalRows   int64 `json:"eval_rows"`
	Uncaptured int64 `json:"uncaptured"`
}

func (s *childStats) add(o childStats) {
	s.CPUNs += o.CPUNs
	s.TotalAlloc += o.TotalAlloc
	s.Requests += o.Requests
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.OpenNs += o.OpenNs
	s.HandlerNs += o.HandlerNs
	s.MatchCalls += o.MatchCalls
	s.MatchNs += o.MatchNs
	s.Scanned += o.Scanned
	s.EvalNs += o.EvalNs
	s.EvalRows += o.EvalRows
	s.Uncaptured += o.Uncaptured
}

// sub returns the growth of the running totals since o; the replay fields
// and OpenNs are not running totals and stay as they are.
func (s childStats) sub(o childStats) childStats {
	s.CPUNs -= o.CPUNs
	s.TotalAlloc -= o.TotalAlloc
	s.Requests -= o.Requests
	s.CacheHits -= o.CacheHits
	s.CacheMisses -= o.CacheMisses
	s.HandlerNs -= o.HandlerNs
	s.MatchCalls -= o.MatchCalls
	s.MatchNs -= o.MatchNs
	s.Scanned -= o.Scanned
	return s
}

// cpuNs is this process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// tracedGraph wraps a store.Graph and totals the calls into it. Match time
// excludes the time spent in the caller's callback: the evaluator recurses
// into further Match calls from inside it, so inclusive times would count
// the same nanoseconds once per nesting level.
type tracedGraph struct {
	store.Graph
	calls, ns, scanned atomic.Int64
}

func (g *tracedGraph) Match(s, p, o *rdf.Term, fn func(rdf.Triple) bool) {
	start := time.Now()
	var inCallback time.Duration
	var n int64
	g.Graph.Match(s, p, o, func(t rdf.Triple) bool {
		n++
		c0 := time.Now()
		ok := fn(t)
		inCallback += time.Since(c0)
		return ok
	})
	g.ns.Add(int64(time.Since(start) - inCallback))
	g.calls.Add(1)
	g.scanned.Add(n)
}

func (g *tracedGraph) Count(s, p, o *rdf.Term) int {
	start := time.Now()
	n := g.Graph.Count(s, p, o)
	g.ns.Add(int64(time.Since(start)))
	g.calls.Add(1)
	return n
}

func (g *tracedGraph) Contains(s, p, o *rdf.Term) bool {
	start := time.Now()
	ok := g.Graph.Contains(s, p, o)
	g.ns.Add(int64(time.Since(start)))
	g.calls.Add(1)
	return ok
}

// maxCaptured bounds the distinct subquery texts a traced child keeps for
// the replay; a pass of the largest workload sends about 2000.
const maxCaptured = 8192

// childServer is the state behind a child's routes.
type childServer struct {
	raw      store.Graph
	traced   *tracedGraph // nil unless -child-trace
	disk     *diskstore.Store
	openNs   int64
	requests atomic.Int64
	handler  atomic.Int64

	mu         sync.Mutex
	captured   map[string]int64
	uncaptured int64
	replay     childStats
}

func (c *childServer) stats() childStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := childStats{
		CPUNs:      cpuNs(),
		TotalAlloc: int64(ms.TotalAlloc),
		Requests:   c.requests.Load(),
		OpenNs:     c.openNs,
		HandlerNs:  c.handler.Load(),
	}
	if c.disk != nil {
		s.CacheHits, s.CacheMisses, _ = c.disk.CacheStats()
	}
	if c.traced != nil {
		s.MatchCalls, s.MatchNs, s.Scanned = c.traced.calls.Load(), c.traced.ns.Load(), c.traced.scanned.Load()
	}
	c.mu.Lock()
	s.EvalNs, s.EvalRows, s.Uncaptured = c.replay.EvalNs, c.replay.EvalRows, c.uncaptured
	c.mu.Unlock()
	return s
}

// wrap counts and times the SPARQL handler from outside and, when tracing,
// captures the query texts for the replay.
func (c *childServer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c.traced != nil {
			// ParseForm caches its result, so the handler's own call
			// sees the same form.
			if err := r.ParseForm(); err == nil {
				c.capture(r.Form.Get("query"))
			}
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		c.handler.Add(int64(time.Since(start)))
		c.requests.Add(1)
	})
}

func (c *childServer) capture(q string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.captured[q]; !ok && len(c.captured) >= maxCaptured {
		c.uncaptured++
		return
	}
	c.captured[q]++
}

// handleReplay evaluates every captured subquery once on a fresh evaluator
// over the unwrapped graph, which times eval without the HTTP handler
// around it and without the Match wrapper inside it.
func (c *childServer) handleReplay(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	texts := make([]string, 0, len(c.captured))
	for q := range c.captured {
		texts = append(texts, q)
	}
	sort.Strings(texts)
	counts := make(map[string]int64, len(c.captured))
	for q, n := range c.captured {
		counts[q] = n
	}
	c.mu.Unlock()
	ev := eval.New(c.raw)
	var out childStats
	for _, q := range texts {
		start := time.Now()
		res, err := ev.QueryString(q)
		d := time.Since(start)
		if err != nil {
			continue
		}
		out.EvalNs += int64(d) * counts[q]
		out.EvalRows += int64(len(res.Rows)) * counts[q]
	}
	c.mu.Lock()
	c.replay = out
	c.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// serveChild is the -serve mode: build or open the dataset, serve it on an
// ephemeral port, print the URL, exit when stdin reaches EOF (the parent
// closed the pipe, or died).
func serveChild(wl *workload, seed int64, quick bool, index int, storePath string, traced bool) error {
	runtime.GOMAXPROCS(1)
	c := &childServer{captured: map[string]int64{}}
	if storePath != "" {
		start := time.Now()
		ds, err := diskstore.Open(storePath, diskstore.Options{CacheBytes: diskCacheBytes})
		if err != nil {
			return err
		}
		defer ds.Close()
		c.openNs = int64(time.Since(start))
		c.raw, c.disk = ds, ds
	} else {
		// Keep only this child's dataset: datasets are numbered in the
		// order the generator first emits them.
		st := store.New()
		seen := map[string]int{}
		err := wl.data(seed, quick).emit(func(dataset string, t rdf.Triple) error {
			i, ok := seen[dataset]
			if !ok {
				i = len(seen)
				seen[dataset] = i
			}
			if i == index {
				st.Add(t)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if st.Len() == 0 {
			return fmt.Errorf("child %d: empty dataset", index)
		}
		c.raw = st
	}
	served := c.raw
	if traced {
		c.traced = &tracedGraph{Graph: c.raw}
		served = c.traced
	}

	mux := http.NewServeMux()
	mux.Handle("/sparql", c.wrap(endpoint.NewHandler("child"+strconv.Itoa(index), served)))
	mux.HandleFunc("/bench/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.stats()) // a failed write shows up as a decode error in the parent
	})
	mux.HandleFunc("/bench/replay", c.handleReplay)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	fmt.Printf("http://%s\n", ln.Addr())

	_, _ = io.Copy(io.Discard, os.Stdin) // returns at EOF; a read error means the same: stop
	srv.Close()
	<-done
	if c.disk != nil {
		return c.disk.Err()
	}
	return nil
}

// child is the orchestrator's handle on one endpoint process.
type child struct {
	name  string
	base  string // http://127.0.0.1:port
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// fleet owns every child of one federation; stop is safe on any path.
type fleet struct {
	children []*child
	hc       *http.Client // for the /bench/ routes, apart from the measured transport
}

// startFleet launches one child per argument list and waits until each has
// printed its URL. On error the children already started are stopped.
func startFleet(names []string, args func(i int) []string) (*fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f := &fleet{hc: &http.Client{Transport: &http.Transport{}}}
	type started struct {
		i    int
		base string
		err  error
	}
	ready := make(chan started, len(names))
	for i, name := range names {
		cmd := exec.Command(exe, args(i)...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err == nil {
			var stdout io.ReadCloser
			if stdout, err = cmd.StdoutPipe(); err == nil {
				if err = cmd.Start(); err == nil {
					f.children = append(f.children, &child{name: name, cmd: cmd, stdin: stdin})
					go func(i int) {
						line, err := bufio.NewReader(stdout).ReadString('\n')
						ready <- started{i, strings.TrimSpace(line), err}
					}(i)
					continue
				}
			}
		}
		f.stop()
		return nil, fmt.Errorf("starting child %s: %w", name, err)
	}
	timeout := time.After(60 * time.Second)
	for range f.children {
		select {
		case s := <-ready:
			if s.err != nil {
				f.stop()
				return nil, fmt.Errorf("child %s exited before serving: %w", names[s.i], s.err)
			}
			f.children[s.i].base = s.base
		case <-timeout:
			f.stop()
			return nil, fmt.Errorf("children not serving after 60s")
		}
	}
	return f, nil
}

// stop closes every child's stdin, waits for it to exit and kills it if it
// does not; afterwards no child process is left. It reports children that
// had to be killed or exited with an error.
func (f *fleet) stop() error {
	var firstErr error
	f.hc.CloseIdleConnections()
	for _, c := range f.children {
		c.stdin.Close()
	}
	for _, c := range f.children {
		done := make(chan error, 1)
		go func() { done <- c.cmd.Wait() }()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill() // already exited is fine
			<-done
			err = fmt.Errorf("did not exit on stdin EOF, killed")
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("child %s: %w", c.name, err)
		}
	}
	f.children = nil
	return firstErr
}

// stats sums /bench/stats over the fleet. With replay, every child first
// replays its captured subqueries, one child at a time: replaying on all of
// them at once would time contention for the cores, not eval.
func (f *fleet) stats(ctx context.Context, replay bool) (childStats, error) {
	var total childStats
	if replay {
		for _, c := range f.children {
			if err := c.get(ctx, f.hc, "/bench/replay", nil); err != nil {
				return total, fmt.Errorf("child %s: %w", c.name, err)
			}
		}
	}
	for _, c := range f.children {
		var s childStats
		if err := c.get(ctx, f.hc, "/bench/stats", &s); err != nil {
			return total, fmt.Errorf("child %s: %w", c.name, err)
		}
		total.add(s)
	}
	return total, nil
}

// get fetches one of the child's /bench/ routes, decoding the JSON body
// into into when that is not nil.
func (c *child) get(ctx context.Context, hc *http.Client, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	if into == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
