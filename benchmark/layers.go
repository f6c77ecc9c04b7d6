package main

import (
	"bytes"
	"io"
	"runtime/metrics"
	"sort"
	"time"

	"lusail/internal/core"
	"lusail/internal/diskstore"
	"lusail/internal/obs"
	"lusail/internal/qplan"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/sparql/sema"
)

// profileSums adds up the core.Profile of every traced query.
type profileSums struct {
	select_, analysis              time.Duration
	countProbes, checks, checkHits int
	subqueries, delayed            int
	ops                            map[string]time.Duration // obs.SumByName over the span trees
	batches, batchValues           int                      // bound-join blocks and the bindings they shipped
	spilledJoins                   int
}

func (p *profileSums) add(prof *core.Profile) {
	if prof == nil {
		return
	}
	p.select_ += prof.SourceSelection
	p.analysis += prof.Analysis
	p.countProbes += prof.CountProbes
	p.checks += prof.ChecksIssued
	p.checkHits += prof.CheckCacheHit
	p.subqueries += prof.Subqueries
	p.delayed += prof.Delayed
	if prof.Trace == nil {
		return
	}
	if p.ops == nil {
		p.ops = map[string]time.Duration{}
	}
	for name, d := range obs.SumByName(prof.Trace) {
		p.ops[name] += d
	}
	for _, b := range obs.FindAll(prof.Trace, "batch") {
		if v, ok := b.Attr("values"); ok {
			p.batches++
			p.batchValues += v.(int)
		}
	}
	for _, j := range obs.FindAll(prof.Trace, "hash-join") {
		if v, ok := j.Attr("spilled"); ok && v.(bool) {
			p.spilledJoins++
		}
	}
}

// obsCounters are the process-wide obs registry series the harness reads as
// deltas around a phase.
type obsCounters struct {
	sourceHits, sourceMisses        int64
	catSourceHits, catCardHits      int64
	erhWaitSeconds                  float64
	planHits, planMisses, planStale int64
	admissionWaitSeconds            float64
	admissionWaits                  int64
	shed, throttled, serverQueries  int64
}

func readObs() obsCounters {
	reg := obs.Default()
	c := func(name string) int64 { return reg.Counter(name, "").Value() }
	erhWait := reg.Histogram(obs.MetricERHWaitSeconds, "", obs.LatencyBuckets)
	admWait := reg.Histogram(obs.MetricAdmissionWaitSeconds, "", obs.LatencyBuckets)
	return obsCounters{
		sourceHits:           c(obs.MetricSourceCacheHits),
		sourceMisses:         c(obs.MetricSourceCacheMisses),
		catSourceHits:        c(obs.MetricCatalogSourceHits),
		catCardHits:          c(obs.MetricCatalogCardHits),
		erhWaitSeconds:       erhWait.Sum(),
		planHits:             c(obs.MetricPlanCacheHits),
		planMisses:           c(obs.MetricPlanCacheMisses),
		planStale:            c(obs.MetricPlanCacheStale),
		admissionWaitSeconds: admWait.Sum(),
		admissionWaits:       admWait.Count(),
		shed:                 c(obs.MetricAdmissionShed),
		throttled:            c(obs.MetricAdmissionThrottled),
		serverQueries:        c(obs.MetricServerQueries),
	}
}

// sampler polls, every 2 ms while a traced phase runs, the two gauges whose
// maximum the harness reports: the live heap and the ERH pool's in-flight
// tasks.
type sampler struct {
	quit chan struct{}
	done chan struct{}
	heap uint64
	erh  int64
}

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		inFlight := obs.Default().Gauge(obs.MetricERHInFlight, "")
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 && sample[0].Value.Uint64() > s.heap {
				s.heap = sample[0].Value.Uint64()
			}
			if v := inFlight.Value(); v > s.erh {
				s.erh = v
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) stop() (peakHeapBytes uint64, peakInFlight int64) {
	close(s.quit)
	<-s.done
	return s.heap, s.erh
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues turns one traced phase into the per-layer metrics. plain
// is the untraced phase of the same run, for the tracing overhead.
func (e *env) perLayerValues(m, plain *measurement, peakHeap uint64, peakInFlight int64) (map[string]float64, error) {
	v := map[string]float64{}
	n := float64(len(m.samples))
	ob, oa := m.before().obs, m.after().obs
	ch := m.after().children.sub(m.before().children)
	p := &e.profs

	// Spans, grouped per query.
	e.rec.mu.Lock()
	spans := append([]span(nil), e.rec.spans...)
	e.rec.mu.Unlock()
	var reqMs, headMs []float64
	byQuery := map[int64][][2]int64{}
	byParent := map[int64][][2]int64{}
	execs := map[int64][2]int64{}
	kinds := map[string]float64{}
	var waitNs, rowsIn, rowsOut, errs, execNs, planNs float64
	for _, s := range spans {
		switch s.Name {
		case "request":
			reqMs = append(reqMs, float64(s.End-s.Start)/1e6)
			headMs = append(headMs, float64(s.Head-s.Start)/1e6)
			// Until the head arrives the engine can do nothing with the
			// request; afterwards the open span is the engine's own
			// decoding and joining of the rows as they stream in.
			byQuery[s.QID] = append(byQuery[s.QID], [2]int64{s.Start, s.Head})
			byParent[s.Parent] = append(byParent[s.Parent], [2]int64{s.Start, s.Head})
			kinds[s.Kind]++
			waitNs += float64(s.End - s.Start)
			rowsIn += float64(s.Rows)
			if s.Err != "" {
				errs++
			}
		case "exec":
			execs[s.ID] = [2]int64{s.Start, s.End}
			execNs += float64(s.End - s.Start)
		case "plan":
			planNs += float64(s.End - s.Start)
		case "query":
			rowsOut += float64(s.Rows)
		}
	}
	var blockedNs, execSelfNs float64
	for _, iv := range byQuery {
		blockedNs += float64(unionNs(iv))
	}
	for id, iv := range execs {
		execSelfNs += float64(selfNs(iv, byParent[id]))
	}
	sort.Float64s(reqMs)
	sort.Float64s(headMs)

	// sparql, sema, qplan: the front end, timed over the mix's own texts.
	timeFrontEnd(v, e.queries)
	replayBodies(v, e.tr)

	v["federation.asks_per_query"] = kinds[kindAsk] / n
	v["federation.source_cache_hit_ratio"] = ratio(float64(oa.sourceHits-ob.sourceHits), float64(oa.sourceHits-ob.sourceHits+oa.sourceMisses-ob.sourceMisses))
	v["federation.select_ms_per_query"] = ms(p.select_) / n

	v["catalog.build_ms"] = ms(e.catalogTime)
	v["catalog.source_hits_per_query"] = float64(oa.catSourceHits-ob.catSourceHits) / n
	v["catalog.card_hits_per_query"] = float64(oa.catCardHits-ob.catCardHits) / n

	v["core.plan_ms_per_query"] = planNs / 1e6 / n
	v["core.analysis_ms_per_query"] = ms(p.analysis) / n
	v["core.count_probes_per_query"] = float64(p.countProbes) / n
	v["core.checks_per_query"] = float64(p.checks) / n
	v["core.check_cache_hit_ratio"] = ratio(float64(p.checkHits), float64(p.checkHits+p.checks))
	v["core.subqueries_per_query"] = float64(p.subqueries) / n
	v["core.delayed_per_query"] = float64(p.delayed) / n

	v["core.exec_ms_per_query"] = execNs / 1e6 / n
	v["core.exec_self_ms_per_query"] = execSelfNs / 1e6 / n
	v["core.scan_requests_per_query"] = kinds[kindScan] / n
	v["core.boundjoin_requests_per_query"] = kinds[kindBoundJoin] / n
	v["core.boundjoin_values_rows_per_request"] = ratio(float64(p.batchValues), float64(p.batches))
	v["core.op.scan_ms"] = ms(p.ops["scan"]) / n
	v["core.op.hash_join_ms"] = ms(p.ops["hash-join"]) / n
	v["core.op.bound_join_ms"] = ms(p.ops["bound-join"]) / n
	v["core.op.left_join_ms"] = ms(p.ops["optional"]) / n
	v["core.spilled_joins_per_query"] = float64(p.spilledJoins) / n
	v["core.rows_in_per_row_out"] = ratio(rowsIn, rowsOut)
	v["core.peak_live_heap_mib"] = float64(peakHeap) / (1 << 20)

	v["erh.wait_ms_per_query"] = (oa.erhWaitSeconds - ob.erhWaitSeconds) * 1e3 / n
	v["erh.inflight_max"] = float64(peakInFlight)

	v["client.request_ms_p50"] = percentile(reqMs, 50)
	v["client.request_ms_p90"] = percentile(reqMs, 90)
	v["client.head_ms_p50"] = percentile(headMs, 50)
	v["client.wait_ms_per_query"] = waitNs / 1e6 / n
	v["client.blocked_ms_per_query"] = blockedNs / 1e6 / n
	v["client.blocked_share_of_query"] = ratio(blockedNs, sumTotals(m.samples))
	v["client.rows_per_query"] = rowsIn / n
	v["client.conns_opened"] = float64(m.after().dials - m.before().dials)
	v["client.errors_per_query"] = errs / n

	reqs := float64(ch.Requests)
	v["endpoint.handler_ms_per_request"] = ratio(float64(ch.HandlerNs)/1e6, reqs)
	v["eval.ms_per_request"] = ratio(float64(ch.EvalNs)/1e6, reqs-float64(ch.Uncaptured))
	v["endpoint.overhead_ms_per_request"] = v["endpoint.handler_ms_per_request"] - v["eval.ms_per_request"]
	v["eval.krows_per_s"] = ratio(float64(ch.EvalRows)/1e3, float64(ch.EvalNs)/1e9)
	v["store.match_calls_per_request"] = ratio(float64(ch.MatchCalls), reqs)
	v["store.match_us_per_call"] = ratio(float64(ch.MatchNs)/1e3, float64(ch.MatchCalls))
	v["store.triples_scanned_per_row"] = ratio(float64(ch.Scanned), rowsIn)

	if e.cfg.wl.disk {
		v["diskstore.load_s"] = e.loadSeconds
		v["diskstore.load_ktriples_per_s"] = ratio(float64(e.load.TriplesAdded)/1e3, e.loadSeconds)
		v["diskstore.bytes_per_triple"] = ratio(float64(e.load.FileBytes), float64(e.load.Triples))
		v["diskstore.open_ms"] = ratio(float64(ch.OpenNs)/1e6, float64(len(e.data)))
		v["diskstore.cache_hit_ratio"] = ratio(float64(ch.CacheHits), float64(ch.CacheHits+ch.CacheMisses))
		v["diskstore.cache_misses_per_request"] = ratio(float64(ch.CacheMisses), reqs)
		hit, miss, err := timeDiskMatch(e.storePaths[0], e.data[0].Triples)
		if err != nil {
			return nil, err
		}
		v["diskstore.match_us_hit"], v["diskstore.match_us_miss"] = hit, miss
	}
	v["rdf.ntriples_ktriples_per_s"] = timeNTriples(e.data[0].Triples)

	if e.cfg.wl.service {
		var byClass = map[string][]float64{}
		for _, s := range m.samples {
			if s.err == nil {
				byClass[s.class] = append(byClass[s.class], ms(s.total))
			}
		}
		served := float64(oa.serverQueries - ob.serverQueries)
		v["server.result_hit_ratio"] = ratio(float64(len(byClass["result"])), n)
		v["server.plan_hit_ratio"] = ratio(float64(oa.planHits-ob.planHits), float64(oa.planHits-ob.planHits+oa.planMisses-ob.planMisses))
		v["server.result_hit_ms_p50"] = median(byClass["result"])
		v["server.plan_hit_ms_p50"] = median(byClass["plan"])
		v["server.miss_ms_p50"] = median(byClass["miss"])
		v["server.admission_wait_ms_mean"] = ratio((oa.admissionWaitSeconds-ob.admissionWaitSeconds)*1e3, float64(oa.admissionWaits-ob.admissionWaits))
		v["server.stale_replans"] = float64(oa.planStale - ob.planStale)
		v["server.shed_ratio"] = ratio(float64(oa.shed-ob.shed+oa.throttled-ob.throttled), served)
	}

	v["obs.trace_overhead_pct"] = traceOverheadPct(m.samples, plain.samples)
	return v, nil
}

func sumTotals(samples []sample) float64 {
	var t float64
	for _, s := range samples {
		t += float64(s.total)
	}
	return t
}

// traceOverheadPct compares like with like: the samples of each phase are
// grouped by query (and, for service_zipf, by cache outcome, since a short
// phase has a colder cache and so another mix); the overhead is the median,
// over the groups with at least three samples in both phases (the untraced
// third of a 20 s run is four passes of lrb_cold_wan), of traced median over
// untraced median, minus one.
func traceOverheadPct(traced, plain []sample) float64 {
	type key struct {
		query int
		class string
	}
	group := func(samples []sample) map[key][]float64 {
		out := map[key][]float64{}
		for _, s := range samples {
			if s.err == nil {
				k := key{s.query, s.class}
				out[k] = append(out[k], ms(s.total))
			}
		}
		return out
	}
	t, p := group(traced), group(plain)
	var ratios []float64
	for k, with := range t {
		if without := p[k]; len(with) >= 3 && len(without) >= 3 {
			ratios = append(ratios, ratio(median(with), median(without)))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return 100 * (median(ratios) - 1)
}

// timeFrontEnd times parse, vet, rewrite, canonical key and normalisation
// over every spelling of the mix, repeated until each has run for a while,
// and reports microseconds per query text.
func timeFrontEnd(v map[string]float64, queries []query) {
	var texts []string
	for _, q := range queries {
		texts = append(texts, q.spellings...)
	}
	const rounds = 20
	var parse, vet, rewrite, key, normalize time.Duration
	for r := 0; r < rounds; r++ {
		for _, text := range texts {
			t0 := time.Now()
			q, err := sparql.Parse(text)
			t1 := time.Now()
			if err != nil {
				continue
			}
			sema.Vet(q, text)
			t2 := time.Now()
			rq, _ := sema.Rewrite(q)
			t3 := time.Now()
			sema.KeyOf(sema.CanonicalText(q))
			t4 := time.Now()
			_, _ = qplan.Normalize(rq) // only timed; the engine reports its own errors
			t5 := time.Now()
			parse += t1.Sub(t0)
			vet += t2.Sub(t1)
			rewrite += t3.Sub(t2)
			key += t4.Sub(t3)
			normalize += t5.Sub(t4)
		}
	}
	per := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(rounds*len(texts)) }
	v["sparql.parse_us_per_query"] = per(parse)
	v["sema.vet_us_per_query"] = per(vet)
	v["sema.rewrite_us_per_query"] = per(rewrite)
	v["sema.key_us_per_query"] = per(key)
	v["qplan.normalize_us_per_query"] = per(normalize)
}

// replayBodies pushes the response bodies captured during the traced phase
// through the streaming decoder again, alone, and the decoded results
// through the encoder.
func replayBodies(v map[string]float64, tr *countingTransport) {
	tr.mu.Lock()
	bodies := tr.bodies
	tr.mu.Unlock()
	var decBytes, rows, encBytes float64
	var decTime, encTime time.Duration
	for _, body := range bodies {
		t0 := time.Now()
		dec, err := sparql.NewJSONDecoder(io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			continue
		}
		res, err := sparql.ReadAllRows(dec)
		d := time.Since(t0)
		if err != nil || res.IsBoolean {
			continue
		}
		decTime += d
		decBytes += float64(len(body))
		rows += float64(len(res.Rows))
		var w countingWriter
		t0 = time.Now()
		if err := res.WriteJSON(&w); err != nil {
			continue
		}
		encTime += time.Since(t0)
		encBytes += float64(w)
	}
	v["sparql.decode_mib_per_s"] = ratio(decBytes/(1<<20), decTime.Seconds())
	v["sparql.decode_krows_per_s"] = ratio(rows/1e3, decTime.Seconds())
	v["sparql.encode_mib_per_s"] = ratio(encBytes/(1<<20), encTime.Seconds())
}

type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// timeDiskMatch times Match directly on a store file, per call, for a fixed
// set of patterns covering the bound masks S, P+O, S+P and O, each stopped
// at its first triple so that the time is the lookup and not the length of
// the answer: once on a handle whose 64 MiB cache holds every block after
// a first round (hit), once on a handle with the children's 1 MiB cache,
// visiting patterns that stride across the whole file (miss).
func timeDiskMatch(path string, triples []rdf.Triple) (hitUs, missUs float64, err error) {
	const patterns = 2000
	stride := len(triples)/patterns + 1
	var picks []rdf.Triple
	for i := 0; i < len(triples); i += stride {
		picks = append(picks, triples[i])
	}
	round := func(st *diskstore.Store) (calls int) {
		for i, t := range picks {
			t := t
			sink := func(rdf.Triple) bool { return false }
			switch i % 4 {
			case 0:
				st.Match(&t.S, nil, nil, sink)
			case 1:
				st.Match(nil, &t.P, &t.O, sink)
			case 2:
				st.Match(&t.S, &t.P, nil, sink)
			case 3:
				st.Match(nil, nil, &t.O, sink)
			}
			calls++
		}
		return calls
	}
	time1 := func(cacheBytes int64, warm bool) (float64, error) {
		st, err := diskstore.Open(path, diskstore.Options{CacheBytes: cacheBytes})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		if warm {
			round(st)
		}
		t0 := time.Now()
		calls := round(st)
		d := time.Since(t0)
		return float64(d) / 1e3 / float64(calls), st.Err()
	}
	if hitUs, err = time1(64<<20, true); err != nil {
		return 0, 0, err
	}
	missUs, err = time1(diskCacheBytes, false)
	return hitUs, missUs, err
}

// timeNTriples serialises up to 50k triples and times parsing them back.
func timeNTriples(triples []rdf.Triple) float64 {
	if len(triples) > 50000 {
		triples = triples[:50000]
	}
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, triples); err != nil {
		return 0
	}
	t0 := time.Now()
	parsed, err := rdf.ParseNTriples(&buf)
	if err != nil {
		return 0
	}
	return ratio(float64(len(parsed))/1e3, time.Since(t0).Seconds())
}
