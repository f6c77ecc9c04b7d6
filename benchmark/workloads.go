package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lusail/internal/bench"
	"lusail/internal/rdf"
)

// workload is one federation plus the query mix that runs against it. The
// four of them share one code path: the fields below are the only things
// that differ.
type workload struct {
	name string
	why  string
	// rtt is the simulated round trip added to every endpoint request
	// (client.NewLatency, RTT only).
	rtt time.Duration
	// cold clears the engine's source-selection and check caches before
	// every query, so each execution pays the planning probes.
	cold bool
	// disk serves the datasets from diskstore files behind a 1 MiB block
	// cache instead of from memory.
	disk bool
	// service puts lusaild in front of the engine and drives it with two
	// closed-loop HTTP clients drawing shapes by Zipf.
	service bool
	// data sizes the federation for a seed; quick is the tiny size the
	// unit test uses.
	data func(seed int64, quick bool) dataSpec
	// queries returns the query mix for the generated data.
	queries func(d dataSpec) []query
}

// dataSpec names one generated federation: exactly one of the two configs
// is set. Orchestrator and children both derive it from (workload, seed,
// quick), so a child regenerates its dataset instead of receiving it.
type dataSpec struct {
	lrb   *bench.LRBConfig
	lubm  *bench.LUBMConfig
	quick bool
}

// emit streams the federation triple by triple, dataset by dataset.
func (d dataSpec) emit(fn func(dataset string, t rdf.Triple) error) error {
	if d.lubm != nil {
		return bench.EmitLUBM(*d.lubm, fn)
	}
	for _, ds := range bench.GenerateLRB(*d.lrb) {
		for _, t := range ds.Triples {
			if err := fn(ds.Name, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// query is one entry of a workload's mix. spellings holds the texts sent
// to the system (one for the engine workloads, three equivalent ones for
// service_zipf); oracleText is the spelling the oracle evaluates.
type query struct {
	name       string
	spellings  []string
	oracleText string
	want       oracleAnswer
}

var workloads = []*workload{
	{
		name: "lrb_cold_wan",
		why:  "13 heterogeneous endpoints, tiny results, cold caches, 2 ms RTT: time is planning probes (ASK/COUNT/check) times round trips",
		rtt:  2 * time.Millisecond,
		cold: true,
		data: func(seed int64, quick bool) dataSpec {
			cfg := bench.LRBConfig{Scale: 3, Seed: seed}
			if quick {
				cfg.Scale = 1
			}
			return dataSpec{lrb: &cfg, quick: quick}
		},
		queries: func(d dataSpec) []query {
			var out []query
			for _, q := range bench.LRBQueries() {
				out = append(out, query{name: q.Name, spellings: []string{q.Text}, oracleText: q.Text})
			}
			if d.quick {
				out = out[:10] // a pass of all 32 takes 2 s of simulated round trips
			}
			return out
		},
	},
	{
		name: "lubm_bulk_mem",
		why:  "few requests, MBs of intermediate rows from in-memory endpoints, warm caches: time is endpoint eval, JSON encode/decode and the engine's joins",
		data: func(seed int64, quick bool) dataSpec {
			cfg := bench.LUBMConfig{Universities: 4, DeptsPerUniv: 5, ProfsPerDept: 20, StudentsPerDept: 200, Seed: seed, RemoteDegreeRatio: 0.3}
			if quick {
				cfg.DeptsPerUniv, cfg.ProfsPerDept, cfg.StudentsPerDept = 2, 4, 20
			}
			return dataSpec{lubm: &cfg}
		},
		queries: func(dataSpec) []query { return engineQueries(lubmBase()) },
	},
	{
		name: "lubm_bulk_disk",
		why:  "same shapes served from diskstore files several times larger than the 1 MiB block cache, bulk-loaded at set-up: the only workload where diskstore read and write paths dominate",
		disk: true,
		data: func(seed int64, quick bool) dataSpec {
			cfg := bench.LUBMConfig{Universities: 2, DeptsPerUniv: 12, ProfsPerDept: 20, StudentsPerDept: 400, Seed: seed, RemoteDegreeRatio: 0.3}
			if quick {
				cfg.DeptsPerUniv, cfg.ProfsPerDept, cfg.StudentsPerDept = 2, 4, 40
			}
			return dataSpec{lubm: &cfg}
		},
		// Q4 is left out: its cost is bound-join fan-out, which
		// lubm_bulk_mem already measures. Q3 is asked of both universities
		// so that the mix has an odd number of shapes: with an even number
		// the pooled median falls between two shapes' timings and flips
		// from one to the other with the noise.
		queries: func(dataSpec) []query {
			base := lubmBase()
			q3u1 := shape{"Q3.u1", base[2].proj, [][3]string{base[2].pats[0], {"?X", "ub:undergraduateDegreeFrom", "<http://www.University1.edu>"}}}
			return engineQueries(append(base[:3:3], q3u1, base[4]))
		},
	},
	{
		name:    "service_zipf",
		why:     "lusaild over a small catalogued federation, 2 closed-loop clients, Zipf(1.1) over 192 shapes x 3 spellings, catalog epoch bumps: admission, both caches, canonical keys, streamed writer",
		rtt:     300 * time.Microsecond,
		service: true,
		data: func(seed int64, quick bool) dataSpec {
			cfg := bench.LUBMConfig{Universities: 4, DeptsPerUniv: 2, ProfsPerDept: 12, StudentsPerDept: 48, Seed: seed, RemoteDegreeRatio: 0.3}
			if quick {
				cfg.Universities, cfg.ProfsPerDept, cfg.StudentsPerDept = 2, 4, 12
			}
			return dataSpec{lubm: &cfg}
		},
		queries: func(d dataSpec) []query {
			var out []query
			for _, s := range serviceShapes(*d.lubm) {
				out = append(out, query{
					name:       s.name,
					spellings:  []string{s.text(0), s.text(1), s.text(2)},
					oracleText: s.oracleText(),
				})
			}
			return out
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func engineQueries(shapes []shape) []query {
	var out []query
	for _, s := range shapes {
		out = append(out, query{name: s.name, spellings: []string{s.text(0)}, oracleText: s.oracleText()})
	}
	return out
}

const (
	ubNS  = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
	rdfNS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
)

// shape is a basic-graph-pattern query kept as data, so that the spellings
// lusaild must treat as one query and the oracle's own spelling are all
// rendered from the same patterns. Tokens are "?var", "ub:local",
// "rdf:type" or "<iri>".
type shape struct {
	name string
	proj []string
	pats [][3]string
}

// text renders one spelling. 0 is the spelling of internal/bench. 1 renames
// every variable that is not projected and uses other prefix labels. 2
// reverses the pattern order, spells IRIs out and puts one pattern per
// line. All three have the same sema canonical key (set-up verifies it).
func (s shape) text(spelling int) string {
	rename := map[string]string{}
	if spelling == 1 {
		projected := map[string]bool{}
		for _, v := range s.proj {
			projected[v] = true
		}
		for _, p := range s.pats {
			for _, tok := range p {
				if strings.HasPrefix(tok, "?") && !projected[tok] && rename[tok] == "" {
					rename[tok] = fmt.Sprintf("?inner%d", len(rename))
				}
			}
		}
	}
	token := func(tok string) string {
		switch {
		case strings.HasPrefix(tok, "?"):
			if r, ok := rename[tok]; ok {
				return r
			}
			return tok
		case spelling == 1 && tok == "rdf:type":
			return "a"
		case spelling == 1:
			return strings.Replace(tok, "ub:", "u:", 1)
		case spelling == 2 && strings.HasPrefix(tok, "ub:"):
			return "<" + ubNS + tok[3:] + ">"
		case spelling == 2 && strings.HasPrefix(tok, "rdf:"):
			return "<" + rdfNS + tok[4:] + ">"
		}
		return tok
	}
	pats := s.pats
	sep, head := " ", "PREFIX ub: <"+ubNS+">\nPREFIX rdf: <"+rdfNS+">\n"
	switch spelling {
	case 1:
		head = "PREFIX u: <" + ubNS + ">\n"
	case 2:
		head, sep = "", "\n    "
		pats = make([][3]string, len(s.pats))
		for i, p := range s.pats {
			pats[len(pats)-1-i] = p
		}
	}
	var b strings.Builder
	b.WriteString(head + "SELECT " + strings.Join(s.proj, " ") + " WHERE {")
	for _, p := range pats {
		b.WriteString(sep + token(p[0]) + " " + token(p[1]) + " " + token(p[2]) + " .")
	}
	b.WriteString(sep + "}")
	return b.String()
}

// oracleText is spelling 0 with the rdf:type patterns moved last. The
// reference evaluator orders joins greedily and breaks ties by position;
// with the type patterns first it builds cross products of whole classes
// (12 s for Q2 at 70k triples), with them last it follows the joins.
func (s shape) oracleText() string {
	o := shape{name: s.name, proj: s.proj, pats: append([][3]string(nil), s.pats...)}
	sort.SliceStable(o.pats, func(i, j int) bool {
		return o.pats[i][1] != "rdf:type" && o.pats[j][1] == "rdf:type"
	})
	return o.text(0)
}

// lubmBase is LUBM Q1-Q4 of internal/bench/lubm.go plus the "wide"
// low-selectivity query of internal/bench/pipeline.go, in that order.
func lubmBase() []shape {
	return []shape{
		{"Q1", []string{"?X", "?Y", "?Z"}, [][3]string{
			{"?X", "rdf:type", "ub:GraduateStudent"},
			{"?Y", "rdf:type", "ub:University"},
			{"?Z", "rdf:type", "ub:Department"},
			{"?X", "ub:memberOf", "?Z"},
			{"?Z", "ub:subOrganizationOf", "?Y"},
			{"?X", "ub:undergraduateDegreeFrom", "?Y"},
		}},
		{"Q2", []string{"?X", "?Y", "?Z"}, [][3]string{
			{"?X", "rdf:type", "ub:GraduateStudent"},
			{"?Y", "rdf:type", "ub:FullProfessor"},
			{"?Z", "rdf:type", "ub:GraduateCourse"},
			{"?X", "ub:advisor", "?Y"},
			{"?Y", "ub:teacherOf", "?Z"},
			{"?X", "ub:takesCourse", "?Z"},
		}},
		{"Q3", []string{"?X"}, [][3]string{
			{"?X", "rdf:type", "ub:GraduateStudent"},
			{"?X", "ub:undergraduateDegreeFrom", "<http://www.University0.edu>"},
		}},
		{"Q4", []string{"?X", "?Y", "?U", "?A"}, [][3]string{
			{"?X", "rdf:type", "ub:GraduateStudent"},
			{"?X", "ub:advisor", "?Y"},
			{"?Y", "ub:teacherOf", "?Z"},
			{"?X", "ub:takesCourse", "?Z"},
			{"?Y", "ub:doctoralDegreeFrom", "?U"},
			{"?U", "ub:address", "?A"},
		}},
		{"wide", []string{"?X", "?N", "?A", "?Z"}, [][3]string{
			{"?X", "rdf:type", "ub:GraduateStudent"},
			{"?X", "ub:name", "?N"},
			{"?X", "ub:address", "?A"},
			{"?X", "ub:takesCourse", "?Z"},
		}},
	}
}

// serviceShapeCount is the size of service_zipf's shape pool: larger than
// lusaild's result cache (128 entries) and smaller than its plan cache (256).
const serviceShapeCount = 192

// serviceShapes returns the pool in Zipf rank order: Q1-Q4, then Q3 per
// university, "wide" per department, and two per-professor shapes. The
// order is fixed; only the draws and the spelling choice depend on the seed.
func serviceShapes(cfg bench.LUBMConfig) []shape {
	out := lubmBase()[:4]
	for u := 0; u < cfg.Universities; u++ {
		out = append(out, shape{fmt.Sprintf("Q3.u%d", u), []string{"?X"}, [][3]string{
			{"?X", "rdf:type", "ub:GraduateStudent"},
			{"?X", "ub:undergraduateDegreeFrom", fmt.Sprintf("<http://www.University%d.edu>", u)},
		}})
	}
	for u := 0; u < cfg.Universities; u++ {
		for d := 0; d < cfg.DeptsPerUniv; d++ {
			dept := fmt.Sprintf("<http://www.University%d.edu/Department%d>", u, d)
			out = append(out, shape{fmt.Sprintf("wide.u%dd%d", u, d), []string{"?X", "?N", "?A", "?Z"}, [][3]string{
				{"?X", "rdf:type", "ub:GraduateStudent"},
				{"?X", "ub:memberOf", dept},
				{"?X", "ub:name", "?N"},
				{"?X", "ub:address", "?A"},
				{"?X", "ub:takesCourse", "?Z"},
			}})
		}
	}
	for p := 0; p < cfg.ProfsPerDept; p++ {
		for u := 0; u < cfg.Universities; u++ {
			for d := 0; d < cfg.DeptsPerUniv; d++ {
				prof := fmt.Sprintf("<http://www.University%d.edu/Department%d/Professor%d>", u, d, p)
				out = append(out,
					shape{fmt.Sprintf("adv.u%dd%dp%d", u, d, p), []string{"?X", "?N"}, [][3]string{
						{"?X", "ub:advisor", prof},
						{"?X", "ub:name", "?N"},
						{"?X", "ub:undergraduateDegreeFrom", "?U"},
					}},
					shape{fmt.Sprintf("teach.u%dd%dp%d", u, d, p), []string{"?X", "?N"}, [][3]string{
						{prof, "ub:teacherOf", "?Z"},
						{"?X", "ub:takesCourse", "?Z"},
						{"?X", "ub:name", "?N"},
					}})
			}
		}
	}
	if len(out) > serviceShapeCount {
		out = out[:serviceShapeCount]
	}
	return out
}
