package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lusail/internal/bench"
	"lusail/internal/catalog"
	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/diskstore"
	"lusail/internal/erh"
	"lusail/internal/federation"
	"lusail/internal/lint/leakcheck"
	"lusail/internal/rdf"
	"lusail/internal/server"
	"lusail/internal/sparql"
	"lusail/internal/sparql/sema"
	"lusail/internal/store"
)

const (
	// diskCacheBytes is each disk child's block cache: the smallest the
	// store accepts, so that the datasets are several times larger.
	diskCacheBytes = 1 << 20
	// serviceClients is the number of closed-loop clients of service_zipf
	// (the sandbox has 2 cores); the engine workloads use one.
	serviceClients = 2
	// queryTimeout bounds one query; a query that hits it counts as failed.
	queryTimeout = 60 * time.Second
)

// runConfig is one invocation of the benchmark on one workload.
type runConfig struct {
	wl       *workload
	seed     int64
	seconds  float64
	traced   bool
	quick    bool
	tmp      string // parent of the run's temp dir; "" uses the system's
	traceOut string // where to keep the trace JSONL; "" leaves it in the temp dir
	log      io.Writer
}

// env is one set-up federation, ready to run passes.
type env struct {
	cfg     runConfig
	dir     string
	data    []bench.Dataset
	queries []query
	fleet   *fleet
	tr      *countingTransport
	eng     *core.Engine
	rec     *recorder // nil when untraced

	// service_zipf only.
	cat         *catalog.Store
	srv         *server.Server
	hc          *http.Client
	rng         *rand.Rand
	mix         []int // one pass's requests as shape ranks, before shuffling
	sent        int   // requests sent by client 0, for the epoch bumps
	perClient   int
	bumpEvery   int
	catalogTime time.Duration

	// lubm_bulk_disk only.
	load        diskstore.BuildStats
	loadSeconds float64
	storePaths  []string

	setupSeconds float64
	nextQID      atomic.Int64
	profs        profileSums
}

// sample is one timed query execution.
type sample struct {
	query int
	total time.Duration
	first time.Duration // time to the first result row; total when there is none
	rows  uint64
	class string // service_zipf: "result", "plan" or "miss"
	err   error
}

// setUp generates the data, answers the queries with the oracle, loads the
// disk stores, starts the children and builds engine, catalog and lusaild.
// Everything it does is inside setup_s.
func setUp(ctx context.Context, cfg runConfig, dir string, traced bool) (e *env, err error) {
	start := time.Now()
	e = &env{cfg: cfg, dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	spec := cfg.wl.data(cfg.seed, cfg.quick)
	byName := map[string]int{}
	err = spec.emit(func(dataset string, t rdf.Triple) error {
		i, ok := byName[dataset]
		if !ok {
			i = len(e.data)
			byName[dataset] = i
			e.data = append(e.data, bench.Dataset{Name: dataset})
		}
		e.data[i].Triples = append(e.data[i].Triples, t)
		return nil
	})
	if err != nil {
		return e, err
	}
	union := store.New()
	for _, ds := range e.data {
		union.AddAll(ds.Triples)
	}
	e.queries = cfg.wl.queries(spec)
	if err := answerQueries(union, e.queries); err != nil {
		return e, err
	}
	if cfg.wl.service {
		if err := checkSpellings(e.queries); err != nil {
			return e, err
		}
	}
	if cfg.wl.disk {
		if err := e.loadStores(); err != nil {
			return e, err
		}
	}

	names := make([]string, len(e.data))
	for i, ds := range e.data {
		names[i] = ds.Name
	}
	e.fleet, err = startFleet(names, func(i int) []string {
		args := []string{"-serve", "-workload", cfg.wl.name, "-seed", strconv.FormatInt(cfg.seed, 10), "-index", strconv.Itoa(i)}
		if cfg.quick {
			args = append(args, "-quick")
		}
		if traced {
			args = append(args, "-child-trace")
		}
		if cfg.wl.disk {
			args = append(args, "-store", e.storePaths[i])
		}
		return args
	})
	if err != nil {
		return e, err
	}

	e.tr = newCountingTransport()
	if traced {
		e.rec = newRecorder()
	}
	var eps, raw []client.Endpoint
	for _, c := range e.fleet.children {
		h, err := client.NewHTTPWithOptions(c.name, c.base+"/sparql", client.HTTPOptions{Client: &http.Client{Transport: e.tr}})
		if err != nil {
			return e, err
		}
		raw = append(raw, h)
		var ep client.Endpoint = h
		if cfg.wl.rtt > 0 {
			ep = client.NewLatency(ep, cfg.wl.rtt, 0)
		}
		if traced {
			ep = &tracedEndpoint{inner: ep, rec: e.rec}
		}
		eps = append(eps, ep)
	}
	fed, err := federation.New(eps...)
	if err != nil {
		return e, err
	}
	opts := core.DefaultOptions()
	opts.Trace = traced
	if cfg.wl.service {
		// The catalog is built offline, over the endpoints without the
		// simulated round trip, like the baselines' indexes.
		rawFed, err := federation.New(raw...)
		if err != nil {
			return e, err
		}
		e.cat = catalog.NewStore("", 0)
		t0 := time.Now()
		if err := catalog.Build(ctx, rawFed, erh.New(0), e.cat); err != nil {
			return e, fmt.Errorf("building catalog: %w", err)
		}
		e.catalogTime = time.Since(t0)
		opts.Catalog = e.cat
	}
	if e.eng, err = core.New(fed, opts); err != nil {
		return e, err
	}
	if cfg.wl.service {
		e.srv, err = server.Start("127.0.0.1:0", server.Config{
			Engine:          e.eng,
			PlanCacheSize:   256,
			ResultCacheSize: 128,
			ResultCacheTTL:  30 * time.Second,
			DefaultTenant:   server.TenantConfig{MaxConcurrent: serviceClients},
			QueryTimeout:    queryTimeout,
			Logf:            func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
		if err != nil {
			return e, err
		}
		e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
		e.perClient, e.bumpEvery = 400, 200
		if cfg.quick {
			e.perClient, e.bumpEvery = 40, 20
		}
		e.rng = rand.New(rand.NewSource(cfg.seed))
		e.mix = zipfMix(len(e.queries), 1.1, serviceClients*e.perClient)
	}
	e.setupSeconds = time.Since(start).Seconds()
	return e, nil
}

// checkSpellings verifies that lusaild will see the spellings of each shape
// as one query: same sema canonical key.
func checkSpellings(queries []query) error {
	for _, q := range queries {
		var first string
		for i, text := range q.spellings {
			parsed, err := sparql.Parse(text)
			if err != nil {
				return fmt.Errorf("%s spelling %d: %w", q.name, i, err)
			}
			key := sema.KeyOf(sema.CanonicalText(parsed))
			if i == 0 {
				first = key
			} else if key != first {
				return fmt.Errorf("%s: spelling %d has another canonical key than spelling 0", q.name, i)
			}
		}
	}
	return nil
}

// loadStores bulk-loads one diskstore file per dataset and times it: the
// write path of lubm_bulk_disk.
func (e *env) loadStores() error {
	start := time.Now()
	for _, ds := range e.data {
		path := filepath.Join(e.dir, ds.Name+".lds")
		l, err := diskstore.NewLoader(path, diskstore.BuildOptions{})
		if err != nil {
			return err
		}
		for _, t := range ds.Triples {
			if err := l.Add(t); err != nil {
				l.Abort()
				return err
			}
		}
		st, err := l.Finish()
		if err != nil {
			return err
		}
		e.load.TriplesAdded += st.TriplesAdded
		e.load.Triples += st.Triples
		e.load.Terms += st.Terms
		e.load.FileBytes += st.FileBytes
		e.storePaths = append(e.storePaths, path)
	}
	e.loadSeconds = time.Since(start).Seconds()
	return nil
}

// close stops lusaild, the children and the idle connections; afterwards
// nothing of the environment is running. It reports a child that failed.
func (e *env) close() error {
	var err error
	if e.srv != nil {
		e.srv.Close()
	}
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
	if e.tr != nil {
		e.tr.base.CloseIdleConnections()
	}
	if e.fleet != nil {
		err = e.fleet.stop()
	}
	for _, p := range e.storePaths {
		os.Remove(p)
	}
	return err
}

// drain reads a result to its end, checking it against the oracle, and
// returns the sample. next yields rows until it returns io.EOF.
func drain(start time.Time, q *query, vars func() []string, next func() ([]rdf.Term, error)) sample {
	var s sample
	chk := q.want.newChecker()
	for {
		row, err := next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.err = err
			}
			break
		}
		if chk.got.rows == 0 {
			s.first = time.Since(start)
		}
		chk.add(vars(), row)
	}
	s.rows = chk.got.rows
	if s.err == nil {
		s.err = chk.err()
	}
	return s
}

// execEngine runs one query through Engine.Select and drains the cursor.
// Traced, it records the query, plan and exec spans and sums the profile.
func (e *env) execEngine(ctx context.Context, qi int) sample {
	q := &e.queries[qi]
	if e.cfg.wl.cold {
		e.eng.ClearCaches()
	}
	ctx, cancel := context.WithTimeout(ctx, queryTimeout)
	defer cancel()
	var sc *queryScope
	var root, plan, exec span
	if e.rec != nil {
		sc = &queryScope{qid: e.nextQID.Add(1)}
		root = span{ID: e.rec.id(), QID: sc.qid, Name: "query", Query: q.name}
		plan = span{ID: e.rec.id(), Parent: root.ID, QID: sc.qid, Name: "plan"}
		exec = span{ID: e.rec.id(), Parent: root.ID, QID: sc.qid, Name: "exec"}
		sc.parent.Store(plan.ID)
		ctx = withScope(ctx, sc)
		root.Start = e.rec.now()
		plan.Start = root.Start
	}
	start := time.Now()
	rows, err := e.eng.Select(ctx, q.spellings[0])
	if e.rec != nil {
		plan.End = e.rec.now()
		exec.Start = plan.End
		sc.parent.Store(exec.ID)
	}
	var s sample
	if err != nil {
		s.err = err
	} else {
		s = drain(start, q, rows.Vars, func() ([]rdf.Term, error) {
			if rows.Next() {
				return rows.Row(), nil
			}
			if err := rows.Err(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		})
		if cerr := rows.Close(); s.err == nil {
			s.err = cerr
		}
		e.profs.add(rows.Profile())
	}
	s.query, s.total = qi, time.Since(start)
	if s.rows == 0 {
		s.first = s.total
	}
	if e.rec != nil {
		exec.End = e.rec.now()
		root.End = exec.End
		if s.err != nil {
			root.Err = s.err.Error()
		}
		root.Rows = int64(s.rows)
		e.rec.add(root)
		e.rec.add(plan)
		e.rec.add(exec)
	}
	return s
}

// execService sends one query to lusaild over HTTP and decodes the
// streamed answer as it arrives. Anything but a complete, correct 200
// (429, 503, a broken stream, a wrong answer) is a failed sample.
func (e *env) execService(ctx context.Context, qi, spelling int) sample {
	q := &e.queries[qi]
	ctx, cancel := context.WithTimeout(ctx, queryTimeout)
	defer cancel()
	var root span
	if e.rec != nil {
		root = span{ID: e.rec.id(), QID: e.nextQID.Add(1), Name: "query", Query: q.name, Start: e.rec.now()}
	}
	start := time.Now()
	s := func() sample {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.srv.URL+"?query="+url.QueryEscape(q.spellings[spelling]), nil)
		if err != nil {
			return sample{err: err}
		}
		req.Header.Set("Accept", "application/sparql-results+json")
		resp, err := e.hc.Do(req)
		if err != nil {
			return sample{err: err}
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
			resp.Body.Close()
			return sample{err: fmt.Errorf("lusaild: HTTP %d: %s", resp.StatusCode, msg)}
		}
		dec, err := sparql.NewJSONDecoder(resp.Body)
		if err != nil {
			resp.Body.Close()
			return sample{err: err}
		}
		s := drain(start, q, dec.Vars, dec.Read)
		if cerr := dec.Close(); s.err == nil {
			s.err = cerr
		}
		switch {
		case resp.Header.Get("X-Lusail-Cache") == "result-hit":
			s.class = "result"
		case resp.Header.Get("X-Lusail-Plan-Cache") == "hit":
			s.class = "plan"
		default:
			s.class = "miss"
		}
		return s
	}()
	s.query, s.total = qi, time.Since(start)
	if s.rows == 0 {
		s.first = s.total
	}
	if e.rec != nil {
		root.End, root.Kind, root.Rows = e.rec.now(), s.class, int64(s.rows)
		if s.err != nil {
			root.Err = s.err.Error()
		}
		e.rec.add(root)
	}
	return s
}

// pass runs the workload's unit of work once: every query of the mix in
// order on one client, or, for service_zipf, the Zipf mix in seeded order,
// perClient requests on each of the closed-loop clients at once, client 0
// bumping the catalog epoch every bumpEvery of its requests. The bumps are
// half a period off the pass boundary: on it, which client finishes first
// would decide whether a bump's replans count in this pass or the next.
func (e *env) pass(ctx context.Context) []sample {
	if !e.cfg.wl.service {
		out := make([]sample, 0, len(e.queries))
		for qi := range e.queries {
			out = append(out, e.execEngine(ctx, qi))
		}
		return out
	}
	type request struct{ query, spelling int }
	reqs := make([]request, len(e.mix))
	for i, j := range e.rng.Perm(len(e.mix)) {
		reqs[i] = request{e.mix[j], e.rng.Intn(len(e.queries[e.mix[j]].spellings))}
	}
	perClient := make([][]sample, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, r := range reqs[c*e.perClient : (c+1)*e.perClient] {
				perClient[c] = append(perClient[c], e.execService(ctx, r.query, r.spelling))
				if c != 0 {
					continue
				}
				if e.sent++; e.sent%e.bumpEvery == e.bumpEvery/2 {
					// Re-putting a summary changes nothing but the catalog
					// generation: every cached plan and result goes stale.
					if sum, ok := e.cat.Summary(e.data[0].Name); ok {
						e.cat.Put(sum)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, s := range perClient {
		out = append(out, s...)
	}
	return out
}

// zipfMix spreads total requests over the ranks 0..n-1 as Zipf(s) does on
// average: P(k) is proportional to (1+k)^-s, as with rand.NewZipf(r, s, 1,
// n-1), and rank k gets the requests between the rounded cumulative shares
// before and after it, so within one of total*P(k). Every pass sends this
// multiset and the seed decides its order. With independent draws the seed
// would also decide how many requests miss the caches and how costly the
// missed shapes are, and requests_per_query spread twice as far.
func zipfMix(n int, s float64, total int) []int {
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(1+k), -s)
	}
	var mix []int
	cum := 0.0
	for k := 0; k < n; k++ {
		cum += math.Pow(float64(1+k), -s)
		for len(mix) < int(math.Round(float64(total)*cum/sum)) {
			mix = append(mix, k)
		}
	}
	return mix
}

// counters is what the harness reads before and after a measured phase.
type counters struct {
	at       time.Time
	cpuNs    int64
	alloc    uint64
	requests int64
	bytes    int64
	dials    int64
	children childStats
	obs      obsCounters
}

func (e *env) snapshot(ctx context.Context, replay bool) (counters, error) {
	children, err := e.fleet.stats(ctx, replay)
	if err != nil {
		return counters{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cpuNs:    cpuNs(),
		alloc:    ms.TotalAlloc,
		requests: e.tr.requests.Load(),
		bytes:    e.tr.bytes.Load(),
		dials:    e.tr.dials.Load(),
		children: children,
		obs:      readObs(),
		at:       time.Now(),
	}, nil
}

// passRecord is one pass with the counters read before and after it.
type passRecord struct {
	samples       int
	ok            int
	before, after counters
}

// measurement is one measured phase: whole passes until the time is up.
type measurement struct {
	samples []sample
	passes  []passRecord
	wall    time.Duration
}

func (m *measurement) before() counters { return m.passes[0].before }
func (m *measurement) after() counters  { return m.passes[len(m.passes)-1].after }

func (m *measurement) failed() int {
	n := 0
	for _, s := range m.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// measure runs whole passes until seconds have passed (at least one), so
// that every query of the mix is executed equally often and the counts per
// query are exact. The counters are read between passes, outside every
// timed query, so that rates can be reported as medians over passes.
func (e *env) measure(ctx context.Context, seconds float64, replay bool) (*measurement, error) {
	m := &measurement{}
	last, err := e.snapshot(ctx, false)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for done := false; !done; {
		samples := e.pass(ctx)
		done = time.Since(start).Seconds() >= seconds
		m.wall = time.Since(start)
		after, err := e.snapshot(ctx, replay && done)
		if err != nil {
			return nil, err
		}
		rec := passRecord{samples: len(samples), before: last, after: after}
		for _, s := range samples {
			if s.err == nil {
				rec.ok++
			} else {
				fmt.Fprintf(e.cfg.log, "FAILED %s: %v\n", e.queries[s.query].name, s.err)
			}
		}
		m.samples = append(m.samples, samples...)
		m.passes = append(m.passes, rec)
		last = after
	}
	return m, nil
}

// overPasses is the median over the passes of a per-pass value.
func (m *measurement) overPasses(f func(p passRecord) float64) float64 {
	values := make([]float64, len(m.passes))
	for i, p := range m.passes {
		values[i] = f(p)
	}
	return median(values)
}

// endToEndValues computes the user-visible metrics of one untraced phase.
// Latencies are percentiles over every timed execution; the counts are
// totals over the phase (exact with one client); the rates, which a
// disturbed pass would skew, are medians over the passes.
func (e *env) endToEndValues(m *measurement, setups []float64) map[string]float64 {
	var totals, firsts []float64
	for _, s := range m.samples {
		if s.err == nil {
			totals = append(totals, ms(s.total))
			firsts = append(firsts, ms(s.first))
		}
	}
	sort.Float64s(totals)
	sort.Float64s(firsts)
	n := float64(len(m.samples))
	before, after := m.before(), m.after()
	return map[string]float64{
		"setup_s":            median(setups),
		"query_ms_p50":       percentile(totals, 50),
		"query_ms_p90":       percentile(totals, 90),
		"first_row_ms_p50":   percentile(firsts, 50),
		"requests_per_query": float64(after.requests-before.requests) / n,
		"wire_kib_per_query": float64(after.bytes-before.bytes) / 1024 / n,
		"throughput_qps": m.overPasses(func(p passRecord) float64 {
			return float64(p.ok) / p.after.at.Sub(p.before.at).Seconds()
		}),
		"engine_cpu_ms_per_query": m.overPasses(func(p passRecord) float64 {
			return float64(p.after.cpuNs-p.before.cpuNs) / 1e6 / float64(p.samples)
		}),
		"engine_alloc_mib_per_query": m.overPasses(func(p passRecord) float64 {
			return float64(p.after.alloc-p.before.alloc) / (1 << 20) / float64(p.samples)
		}),
		"endpoint_cpu_ms_per_query": m.overPasses(func(p passRecord) float64 {
			return float64(p.after.children.CPUNs-p.before.children.CPUNs) / 1e6 / float64(p.samples)
		}),
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runOnce is one invocation: set up (several times when untraced, for a
// steady setup_s), warm up, measure, tear down, and check that no child
// and no goroutine is left behind.
func runOnce(ctx context.Context, cfg runConfig) (*result, error) {
	runtime.GOMAXPROCS(2)
	dir, err := os.MkdirTemp(cfg.tmp, "lusail-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Join spill files and the loader's sort runs go to TMPDIR; children
	// inherit it. The caller's value is restored, because dir is gone
	// when the run returns.
	old, had := os.LookupEnv("TMPDIR")
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return nil, err
	}
	defer func() {
		// Neither can fail: the name is valid and old came from the environment.
		if had {
			_ = os.Setenv("TMPDIR", old)
		} else {
			_ = os.Unsetenv("TMPDIR")
		}
	}()
	fmt.Fprintf(cfg.log, "workload %s seed %d traced %v: nproc %d (also the engine's ERH pool size), GOMAXPROCS %d (children 1), clients %d\n",
		cfg.wl.name, cfg.seed, cfg.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.clients())
	base := leakcheck.Take()

	res := &result{Metrics: map[string]metricValue{}}
	var values map[string]float64
	if cfg.traced {
		values, err = runTraced(ctx, cfg, dir, res)
	} else {
		values, err = runUntraced(ctx, cfg, dir, res)
	}
	if err != nil {
		return nil, err
	}
	if err := leakcheck.Verify(base, 5*time.Second); err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.traced {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func (c runConfig) clients() int {
	if c.wl.service {
		return serviceClients
	}
	return 1
}

// warmAndMeasure runs the untimed warm-up pass and then the measured phase.
func (e *env) warmAndMeasure(ctx context.Context, seconds float64, replay bool) (*measurement, error) {
	for _, s := range e.pass(ctx) {
		if s.err != nil {
			return nil, fmt.Errorf("warm-up: %s: %w", e.queries[s.query].name, s.err)
		}
	}
	e.profs = profileSums{}
	if e.rec != nil {
		e.rec.reset() // the warm-up's spans are not part of the trace
		e.tr.capture.Store(true)
	}
	return e.measure(ctx, seconds, replay)
}

func runUntraced(ctx context.Context, cfg runConfig, dir string, res *result) (map[string]float64, error) {
	reps := 3
	if cfg.quick {
		reps = 1
	}
	var setups []float64
	for rep := 0; ; rep++ {
		e, err := setUp(ctx, cfg, dir, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, e.setupSeconds)
		if rep < reps-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
			continue
		}
		m, err := e.warmAndMeasure(ctx, cfg.seconds, false)
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = len(m.samples), m.failed()
		fmt.Fprintf(cfg.log, "set-ups %.3v s; %d passes, %d timed queries in %.2f s; the highest percentile with 10 samples beyond it is p%d\n",
			setups, len(m.passes), len(m.samples), m.wall.Seconds(), topPercentile(len(m.samples)-m.failed()))
		return e.endToEndValues(m, setups), nil
	}
}

// runTraced measures a short untraced phase first (for the overhead of
// tracing), then restarts the children in trace mode and measures with
// every recorder on.
func runTraced(ctx context.Context, cfg runConfig, dir string, res *result) (map[string]float64, error) {
	e, err := setUp(ctx, cfg, dir, false)
	if err != nil {
		return nil, err
	}
	plain, err := e.warmAndMeasure(ctx, cfg.seconds/3, false)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	e, err = setUp(ctx, cfg, dir, true)
	if err != nil {
		return nil, err
	}
	watch := startSampler()
	m, err := e.warmAndMeasure(ctx, cfg.seconds*2/3, true)
	peakHeap, peakInFlight := watch.stop()
	var values map[string]float64
	if err == nil {
		values, err = e.perLayerValues(m, plain, peakHeap, peakInFlight)
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = len(m.samples)+len(plain.samples), m.failed()+plain.failed()

	out := cfg.traceOut
	if out == "" {
		out = filepath.Join(dir, "trace.jsonl")
	}
	if err := e.rec.writeJSONL(out); err != nil {
		return nil, err
	}
	kept := "removed with the run's temp dir; pass -trace-out to keep it"
	if cfg.traceOut != "" {
		kept = "kept"
	}
	fmt.Fprintf(cfg.log, "trace: %d spans written to %s (%s)\n", len(e.rec.spans), out, kept)
	return values, nil
}
