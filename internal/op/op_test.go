package op

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/sparql/expr"
)

// rel is a materialized test relation of terms; streams carry its rows as
// ids in a dictionary.
type rel struct {
	vars []string
	rows [][]rdf.Term
}

func (r rel) stream(dict *rdf.Dict) RowStream { return NewSlice(r.vars, InternRows(dict, r.rows)) }

func (r rel) col(v string) int { return slices.Index(r.vars, v) }

// randomVars draws a random subset of ?a..?d, possibly empty, so joins
// degenerate to cross products.
func randomVars(rng *rand.Rand) []string {
	var vars []string
	for _, v := range rng.Perm(4)[:rng.Intn(4)] {
		vars = append(vars, string(rune('a'+v)))
	}
	return vars
}

// randomRel draws n rows over vars with values from a small domain, a
// fifth of the cells unbound, and duplicate rows.
func randomRel(rng *rand.Rand, vars []string, n, domain int) rel {
	r := rel{vars: vars}
	for range n {
		row := make([]rdf.Term, len(vars))
		for i := range row {
			if rng.Intn(5) > 0 {
				row[i] = rdf.NewIRI(fmt.Sprintf("http://ex/x%d", rng.Intn(domain)))
			}
		}
		r.rows = append(r.rows, row)
	}
	return r
}

// bigTrial marks the trials whose build side outgrows parallelProbeMin;
// they join on ?a over a wide domain, so the output stays small.
func bigTrial(trial int) bool { return trial%50 == 0 }

// filterExprs parses FILTER expressions over ?a..?d.
func filterExprs(t *testing.T, texts ...string) []sparql.Expr {
	t.Helper()
	var out []sparql.Expr
	for _, text := range texts {
		q := sparql.MustParse(`SELECT * WHERE { ?a <http://ex/p> ?b FILTER(` + text + `) }`)
		for _, el := range q.Where.Elements {
			if f, ok := el.(sparql.Filter); ok {
				out = append(out, f.Expr)
			}
		}
	}
	return out
}

// randomCond picks up to two conditions, some reading variables of both
// join sides and some reading variables a side may not have.
func randomCond(t *testing.T, rng *rand.Rand) []sparql.Expr {
	texts := []string{
		`?a != <http://ex/x1>`,
		`!BOUND(?c) || ?c != ?a`,
		`?b = ?d`,
		`BOUND(?d)`,
	}
	rng.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	return filterExprs(t, texts[:rng.Intn(3)]...)
}

// holds is the reference condition: every expression true on the row's
// bound variables.
func holds(vars []string, row []rdf.Term, cond []sparql.Expr) bool {
	b := map[string]rdf.Term{}
	for i, v := range vars {
		if !row[i].IsZero() {
			b[v] = row[i]
		}
	}
	for _, x := range cond {
		if !expr.Holds(x, b) {
			return false
		}
	}
	return true
}

// naiveJoin is the nested-loop reference for both join modes, SPARQL's
// compatibility rule written out: a probe and a build row join when every
// shared variable bound on both sides is bound to the same term. The
// combined row carries the probe's variables then the build side's
// others, each shared variable taking the side's value that is bound, and
// it is kept when cond holds on it. In left mode a probe row that keeps no
// combined row is kept itself, zero-extended.
func naiveJoin(probe, build rel, left bool, cond []sparql.Expr) rel {
	out := rel{vars: slices.Clone(probe.vars)}
	for _, v := range build.vars {
		if probe.col(v) < 0 {
			out.vars = append(out.vars, v)
		}
	}
	for _, p := range probe.rows {
		kept := false
	builds:
		for _, b := range build.rows {
			for j, v := range build.vars {
				if i := probe.col(v); i >= 0 && !p[i].IsZero() && !b[j].IsZero() && p[i] != b[j] {
					continue builds
				}
			}
			row := make([]rdf.Term, len(out.vars))
			copy(row, p)
			for j, v := range build.vars {
				if k := out.col(v); row[k].IsZero() {
					row[k] = b[j]
				}
			}
			if holds(out.vars, row, cond) {
				out.rows = append(out.rows, row)
				kept = true
			}
		}
		if left && !kept {
			row := make([]rdf.Term, len(out.vars))
			copy(row, p)
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// looseBytes is the footprint of r's rows with an unbound variable that
// other also has, each widened by extra columns: what a spilled join over
// r keeps in memory.
func looseBytes(r rel, other []string, extra int) int64 {
	var n int64
	for _, row := range r.rows {
		for i, v := range r.vars {
			if row[i].IsZero() && slices.Contains(other, v) {
				n += rowBytes(make([]uint32, len(row)+extra))
				break
			}
		}
	}
	return n
}

// spillCase returns a budget at which the join of probe and build spills
// once it holds any keyed build row beyond the rows of both sides with an
// unbound join variable, which a spilled join keeps in memory, and
// whether the join must then fail with ErrBudget: a cross product cannot
// spill. Both sides' rows are widened by extra columns, which they share
// (a keyed join's key).
func spillCase(probe, build rel, left bool, extra int) (Budget, bool) {
	b := Budget{SpillBytes: max(1, looseBytes(build, probe.vars, extra)+looseBytes(probe, build.vars, extra))}
	width := rowBytes(make([]uint32, len(build.vars)+extra))
	spills := int64(len(build.rows))*width > b.SpillBytes && (len(probe.rows) > 0 || !left)
	cross := extra == 0 && !slices.ContainsFunc(probe.vars, func(v string) bool { return build.col(v) >= 0 })
	return b, spills && cross
}

// fewLoose keeps at most n of r's rows whose variable v is unbound: such a
// row joins every row of the other side, which a big trial's output
// cannot afford.
func fewLoose(r rel, v string, n int) rel {
	i := r.col(v)
	out := rel{vars: r.vars}
	for _, row := range r.rows {
		if row[i].IsZero() {
			if n == 0 {
				continue
			}
			n--
		}
		out.rows = append(out.rows, row)
	}
	return out
}

// keys renders rows as sorted strings; with distinct set, duplicates go.
func keys(r rel, distinct bool) []string {
	var out []string
	for _, row := range r.rows {
		var b strings.Builder
		for _, t := range row {
			b.WriteString(t.String() + "|")
		}
		out = append(out, b.String())
	}
	sort.Strings(out)
	if distinct {
		out = slices.Compact(out)
	}
	return out
}

func collect(t *testing.T, s RowStream, dict *rdf.Dict) (rel, error) {
	t.Helper()
	res, err := Collect(s, dict)
	if err != nil {
		return rel{}, err
	}
	return rel{vars: res.Vars, rows: res.Rows}, nil
}

// checkJoin runs one join at a roomy budget and again at spillCase's. In
// memory the output must equal the reference as a multiset; spilled, as a
// set (the sorter collapses duplicate records), or the join must fail
// with ErrBudget where spillCase says so. It reports whether the join
// spilled with build rows, and with probe rows, of an unbound join
// variable in memory.
func checkJoin(t *testing.T, trial int, probe, build rel, left bool, cond []sparql.Expr, want rel) (looseBuild, looseProbe bool) {
	t.Helper()
	for _, spill := range []bool{false, true} {
		b, wantErr := Budget{SpillBytes: DefaultSpillBytes}, false
		if spill {
			b, wantErr = spillCase(probe, build, left, 0)
		}
		dict := rdf.NewDict()
		var s RowStream
		if left {
			s = LeftJoin(context.Background(), probe.stream(dict), build.stream(dict), dict, cond, b)
		} else {
			s = HashJoin(context.Background(), probe.stream(dict), build.stream(dict), b)
		}
		got, err := collect(t, s, dict)
		if wantErr {
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("trial %d left=%v: err %v, want ErrBudget\nprobe %v %v\nbuild %v %v", trial, left, err, probe.vars, probe.rows, build.vars, build.rows)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d spill=%v: %v", trial, spill, err)
		}
		if !reflect.DeepEqual(got.vars, want.vars) {
			t.Fatalf("trial %d spill=%v: vars %v, want %v", trial, spill, got.vars, want.vars)
		}
		if g, w := keys(got, spill), keys(want, spill); !reflect.DeepEqual(g, w) {
			t.Fatalf("trial %d spill=%v left=%v\nprobe %v %v\nbuild %v %v\ngot  %v\nwant %v",
				trial, spill, left, probe.vars, probe.rows, build.vars, build.rows, g, w)
		}
		if spill && s.(*hashJoin).spilled {
			looseBuild, looseProbe = looseBytes(build, probe.vars, 0) > 0, looseBytes(probe, build.vars, 0) > 0
		}
	}
	return looseBuild, looseProbe
}

// TestHashJoinProperty checks the inner join, and the union, filter and
// VALUES-tuple operators the comparators assemble around it, against
// nested-loop references on random relations: shared and unbound join
// variables, cross products, duplicates, in memory and spilled (rows of
// an unbound join variable on either side kept beside the spill), and
// build tables large enough for the parallel probe.
func TestHashJoinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var loose spilledLoose
	for trial := range 300 {
		probe := randomRel(rng, randomVars(rng), rng.Intn(9), 3)
		// The build side is the union of two relations with their own
		// headers, aligned by variable name.
		part1 := randomRel(rng, randomVars(rng), rng.Intn(9), 3)
		part2 := randomRel(rng, randomVars(rng), rng.Intn(5), 3)
		if bigTrial(trial) {
			probe = fewLoose(randomRel(rng, []string{"a", "b"}, 300, 9000), "a", 2)
			part1 = fewLoose(randomRel(rng, []string{"c", "a"}, 5000, 9000), "a", 2)
			part2 = fewLoose(randomRel(rng, []string{"a", "c"}, 4000, 9000), "a", 2)
		}
		vars := slices.Clone(part1.vars)
		for _, v := range part2.vars {
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
		}
		build := rel{vars: vars}
		for _, part := range []rel{part1, part2} {
			for _, row := range part.rows {
				widened := make([]rdf.Term, len(vars))
				for j, v := range part.vars {
					widened[slices.Index(vars, v)] = row[j]
				}
				build.rows = append(build.rows, widened)
			}
		}
		dict := rdf.NewDict()
		union, err := collect(t, Union(part1.stream(dict), part2.stream(dict)), dict)
		if err != nil || !reflect.DeepEqual(union.vars, build.vars) || !reflect.DeepEqual(keys(union, false), keys(build, false)) {
			t.Fatalf("trial %d: union %v, want %v (%v)", trial, union, build, err)
		}

		loose.add(checkJoin(t, trial, probe, build, false, nil, naiveJoin(probe, build, false, nil)))

		cond := randomCond(t, rng)
		filtered, err := collect(t, Filter(build.stream(dict), dict, cond), dict)
		if err != nil {
			t.Fatal(err)
		}
		want := rel{vars: build.vars}
		for _, row := range build.rows {
			if holds(build.vars, row, cond) {
				want.rows = append(want.rows, row)
			}
		}
		if !reflect.DeepEqual(keys(filtered, false), keys(want, false)) {
			t.Fatalf("trial %d: filter kept %d rows, want %d", trial, len(filtered.rows), len(want.rows))
		}

		var idx []int
		for i := range build.vars {
			if rng.Intn(2) == 0 {
				idx = append(idx, i)
			}
		}
		var tuples [][]rdf.Term
		seen := map[string]bool{}
		for _, row := range build.rows {
			tuple := make([]rdf.Term, len(idx))
			for k, i := range idx {
				tuple[k] = row[i]
			}
			if key := fmt.Sprint(tuple); !seen[key] {
				seen[key] = true
				tuples = append(tuples, tuple)
			}
		}
		got := TermRows(dict, DistinctTuples(InternRows(dict, build.rows), idx))
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tuples) {
			t.Fatalf("trial %d: distinct tuples %v, want %v", trial, got, tuples)
		}
	}
	loose.check(t)
}

// spilledLoose counts the trials that spilled with rows of an unbound join
// variable in memory, on the build side and on the probe side.
type spilledLoose struct{ build, probe int }

func (n *spilledLoose) add(build, probe bool) {
	if build {
		n.build++
	}
	if probe {
		n.probe++
	}
}

func (n spilledLoose) check(t *testing.T) {
	t.Helper()
	if n.build < 10 || n.probe < 10 {
		t.Fatalf("%d trials spilled with build rows and %d with probe rows of an unbound join variable in memory; the paths are not exercised", n.build, n.probe)
	}
}

// TestLeftJoinProperty checks the left join with a condition over both
// sides against the nested-loop reference on random relations, in memory
// and spilled.
func TestLeftJoinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var loose spilledLoose
	for trial := range 300 {
		probe := randomRel(rng, randomVars(rng), rng.Intn(9), 3)
		build := randomRel(rng, randomVars(rng), rng.Intn(13), 3)
		if bigTrial(trial) {
			probe = fewLoose(randomRel(rng, []string{"a", "b"}, 300, 9000), "a", 2)
			build = fewLoose(randomRel(rng, []string{"d", "a"}, 9000, 9000), "a", 2)
		}
		cond := randomCond(t, rng)
		loose.add(checkJoin(t, trial, probe, build, true, cond, naiveJoin(probe, build, true, cond)))
	}
	loose.check(t)
}

// TestJoinSpillUnbound: once a join spills, its rows with an unbound join
// variable stay in memory and still join every compatible row of the
// other side — a build row every probe row, a probe row every spilled
// build row and every build row kept in memory; when they outgrow the
// budget, the join fails with ErrBudget rather than dropping or
// zero-extending rows.
func TestJoinSpillUnbound(t *testing.T) {
	x := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/x%d", i)) }
	keyed := rel{vars: []string{"a", "b"}, rows: [][]rdf.Term{{x(1), x(101)}, {x(2), x(100)}, {x(999), x(102)}}}
	loose := rel{vars: keyed.vars, rows: append(slices.Clone(keyed.rows), []rdf.Term{{}, x(102)})}
	build := rel{vars: []string{"b", "a"}}
	for i := range 50 {
		build.rows = append(build.rows, []rdf.Term{x(100 + i%3), x(i)})
	}
	build.rows = append(build.rows, []rdf.Term{x(101), {}}, []rdf.Term{{}, {}})
	fits, _ := spillCase(keyed, build, false, 0)
	fitsLoose, _ := spillCase(loose, build, false, 0)
	for _, c := range []struct {
		name  string
		probe rel
		b     Budget
		fail  bool
	}{
		{"build rows kept aside", keyed, fits, false},
		{"build rows over the budget", keyed, Budget{SpillBytes: fits.SpillBytes - 1}, true},
		{"probe row without a key", loose, fitsLoose, false},
		{"probe row without a key over the budget", loose, fits, true},
	} {
		for _, left := range []bool{false, true} {
			dict := rdf.NewDict()
			var s RowStream
			if left {
				s = LeftJoin(context.Background(), c.probe.stream(dict), build.stream(dict), dict, nil, c.b)
			} else {
				s = HashJoin(context.Background(), c.probe.stream(dict), build.stream(dict), c.b)
			}
			hj := s.(*hashJoin)
			got, err := collect(t, s, dict)
			if c.fail {
				if !errors.Is(err, ErrBudget) {
					t.Errorf("%s left=%v: err %v, want ErrBudget", c.name, left, err)
				}
				continue
			}
			if err != nil || !hj.spilled {
				t.Fatalf("%s left=%v: err %v, spilled %v", c.name, left, err, hj.spilled)
			}
			if g, w := keys(got, true), keys(naiveJoin(c.probe, build, left, nil), true); !reflect.DeepEqual(g, w) {
				t.Errorf("%s left=%v:\ngot  %v\nwant %v", c.name, left, g, w)
			}
		}
	}
}

// watched records whether anything pulled from its stream.
type watched struct {
	RowStream
	pulled bool
}

func (w *watched) Next() bool { w.pulled = true; return w.RowStream.Next() }

// An OPTIONAL over an empty stream must not issue its block's requests.
func TestLeftJoinEmptyProbeSkipsBuild(t *testing.T) {
	dict := rdf.NewDict()
	build := &watched{RowStream: NewSlice([]string{"b"}, InternRows(dict, [][]rdf.Term{{rdf.NewIRI("http://ex/x")}}))}
	s := LeftJoin(context.Background(), NewSlice([]string{"a"}, nil), build, dict, nil, Budget{SpillBytes: DefaultSpillBytes})
	got, err := Collect(s, dict)
	if err != nil || len(got.Rows) != 0 || build.pulled {
		t.Fatalf("rows %v, err %v, build pulled %v", got, err, build.pulled)
	}
}

// randomKeyRel is randomRel over terms whose lexical forms collide across
// kinds: an IRI, a plain, a tagged and an integer literal can all read
// "1", so STR equality holds between different terms.
func randomKeyRel(rng *rand.Rand, vars []string, n, domain int) rel {
	r := rel{vars: vars}
	for range n {
		row := make([]rdf.Term, len(vars))
		for i := range row {
			lex := fmt.Sprint(rng.Intn(domain))
			switch rng.Intn(5) {
			case 1:
				row[i] = rdf.NewIRI(lex)
			case 2:
				row[i] = rdf.NewLiteral(lex)
			case 3:
				row[i] = rdf.NewLangLiteral(lex, "en")
			case 4:
				row[i] = rdf.NewTypedLiteral(lex, rdf.XSDInteger)
			}
		}
		r.rows = append(r.rows, row)
	}
	return r
}

// TestHashJoinKeyedProperty checks KeyedJoin against a cross join (on any
// shared variables) followed by the filter, on random relations with
// unbound cells and lexical forms that collide across term kinds, in
// memory, through the parallel probe, and spilled.
func TestHashJoinKeyedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	eqs := filterExprs(t, `STR(?a) = STR(?c)`, `STR(?c) = STR(?a)`, `sameTerm(?a, ?c)`, `sameTerm(?c, ?a)`)
	for trial := range 300 {
		// The probe side binds ?a, the build side ?c; ?b and ?d may be on
		// either side or both.
		side := func(key string) []string {
			vars := []string{key}
			for _, v := range []string{"b", "d"} {
				if rng.Intn(2) == 0 {
					vars = append(vars, v)
				}
			}
			rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
			return vars
		}
		probe := randomKeyRel(rng, side("a"), rng.Intn(12), 3)
		build := randomKeyRel(rng, side("c"), rng.Intn(12), 3)
		if trial == 0 {
			// Large enough for the parallel probe (a fifth of the build
			// keys are unbound; two chunks of probe rows); the reference
			// evaluates the filter on every pair.
			probe = randomKeyRel(rng, []string{"a"}, probeChunkMinRows+2, 9000)
			build = randomKeyRel(rng, []string{"c", "d"}, 2*parallelProbeMin, 9000)
		}
		eq := eqs[rng.Intn(len(eqs))]
		want := naiveJoin(probe, build, false, []sparql.Expr{eq})
		for _, spill := range []bool{false, true} {
			b := Budget{SpillBytes: DefaultSpillBytes}
			wantErr := false
			if spill {
				// The key column widens both sides; rows without a key never
				// reach the join.
				b, wantErr = spillCase(fewLoose(probe, "a", 0), fewLoose(build, "c", 0), false, 1)
			}
			dict := rdf.NewDict()
			got, err := collect(t, KeyedJoin(context.Background(), probe.stream(dict), build.stream(dict), dict, eq, b), dict)
			if wantErr {
				if !errors.Is(err, ErrBudget) {
					t.Fatalf("trial %d: err %v, want ErrBudget", trial, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d spill=%v: %v", trial, spill, err)
			}
			if !reflect.DeepEqual(got.vars, want.vars) {
				t.Fatalf("trial %d spill=%v: vars %v, want %v", trial, spill, got.vars, want.vars)
			}
			if g, w := keys(got, spill), keys(want, spill); !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d spill=%v %s\nprobe %v %v\nbuild %v %v\ngot  %v\nwant %v",
					trial, spill, sparql.ExprString(eq), probe.vars, probe.rows, build.vars, build.rows, g, w)
			}
		}
	}
}

// TestTableMatchesProperty checks Table against a scan of its rows in add
// order, on random tables of up to a few thousand rows of width 0 to 4,
// keyed on up to three columns, with ids from {0…4}: unbound cells and
// repeated keys are common, and the slot array grows several times. A
// table copies the rows it is given, and a row stays valid for the
// table's life.
func TestTableMatchesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	randomRow := func(row []uint32) {
		for i := range row {
			row[i] = uint32(rng.Intn(5))
		}
	}
	for trial := range 40 {
		width := rng.Intn(5)
		cols := rng.Perm(width)[:rng.Intn(min(width, 3)+1)]
		n := rng.Intn(3000)
		if trial%4 == 0 {
			n = rng.Intn(3)
		}
		tab := NewTable(cols, []int{0, 1, n / 2, n}[rng.Intn(4)])
		var added, held [][]uint32
		src := make([]uint32, width)
		keyed := map[string]bool{}
		for range n {
			randomRow(src)
			tab.Add(src)
			added = append(added, slices.Clone(src))
			held = append(held, tab.Row(int32(len(held))))
			if key, ok := appendKey(nil, src, cols); ok {
				keyed[string(key)] = true
			}
		}
		if tab.Len() != n || int(tab.index.keys) != len(keyed) {
			t.Fatalf("trial %d: %d rows and %d keys, want %d and %d", trial, tab.Len(), tab.index.keys, n, len(keyed))
		}
		for i, row := range added {
			if !slices.Equal(tab.Row(int32(i)), row) || !slices.Equal(held[i], row) {
				t.Fatalf("trial %d: row %d is %v, held %v, want %v", trial, i, tab.Row(int32(i)), held[i], row)
			}
		}
		var p Probe
		for range 50 {
			prow := make([]uint32, len(cols)+rng.Intn(3))
			randomRow(prow)
			pcols := rng.Perm(len(prow))[:len(cols)]
			var want []int32
			for i, row := range added {
				if tab.compatible(row, prow, pcols) {
					want = append(want, int32(i))
				}
			}
			if got := tab.Matches(prow, pcols, &p); !slices.Equal(got, want) {
				t.Fatalf("trial %d: width %d cols %v, probe %v on %v: matches %v, want %v", trial, width, cols, prow, pcols, got, want)
			}
		}
	}
}

// TestHashJoinAllocsFlat pins the hash join's allocations to its build
// side: joining 8192 probe rows allocates no more than joining 512 against
// the same build side, up to a small constant.
func TestHashJoinAllocsFlat(t *testing.T) {
	probe, build := joinInputs()
	dict := rdf.NewDict()
	probeIDs, buildIDs := InternRows(dict, probe.rows), InternRows(dict, build.rows)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			s := HashJoin(context.Background(), NewSlice(probe.vars, probeIDs[:n]), NewSlice(build.vars, buildIDs), Budget{SpillBytes: DefaultSpillBytes})
			for s.Next() {
			}
			if err := errors.Join(s.Err(), s.Close()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(512), allocs(len(probeIDs))
	t.Logf("%v allocations for 512 probe rows, %v for %d", small, large, len(probeIDs))
	if large > small+4 {
		t.Fatalf("%v allocations for %d probe rows, %v for 512", large, len(probeIDs), small)
	}
}

// TestValuesMultiplicity: a VALUES block joins as a multiset. Equal rows,
// and rows that UNDEF makes join a solution alike, each keep their answer
// through the branch tail, Dedup then Align.
func TestValuesMultiplicity(t *testing.T) {
	dict := rdf.NewDict()
	a, b := rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/b")
	solutions := rel{vars: []string{"s", "v"}, rows: [][]rdf.Term{{a, rdf.NewInteger(1)}, {b, rdf.NewInteger(2)}}}
	vd := sparql.InlineData{Vars: []string{"s"}, Rows: [][]rdf.Term{{a}, {a}, {{}}}}
	values := Values(dict, vd, 3)
	if got, want := values.Vars(), []string{"s", "lusail:values3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("vars %v, want %v", got, want)
	}
	joined := HashJoin(context.Background(), solutions.stream(dict), values, Budget{SpillBytes: DefaultSpillBytes})
	res, err := Collect(Align(Dedup(joined), solutions.vars), dict)
	if err != nil {
		t.Fatal(err)
	}
	res.Sort()
	want := [][]rdf.Term{{a, rdf.NewInteger(1)}, {a, rdf.NewInteger(1)}, {a, rdf.NewInteger(1)}, {b, rdf.NewInteger(2)}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows %v, want %v", res.Rows, want)
	}
}
