package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"lusail/internal/bench"
	"lusail/internal/rdf"
)

// presets size the LUBM federation to round triple counts. Triples per
// department ≈ 2 + 7·profs + 8·students, plus 3 per university.
var presets = map[string]bench.LUBMConfig{
	// ~100K triples across 4 endpoints.
	"100k": {Universities: 4, DeptsPerUniv: 10, ProfsPerDept: 20, StudentsPerDept: 295, Seed: 1, RemoteDegreeRatio: 0.3},
	// ~1M triples across 4 endpoints: the smallest of the paper's magnitudes.
	"1m": {Universities: 4, DeptsPerUniv: 25, ProfsPerDept: 40, StudentsPerDept: 1200, Seed: 1, RemoteDegreeRatio: 0.3},
	// ~10M triples across 8 endpoints.
	"10m": {Universities: 8, DeptsPerUniv: 50, ProfsPerDept: 50, StudentsPerDept: 3050, Seed: 1, RemoteDegreeRatio: 0.3},
}

// emitter generates a federation triple by triple, naming each triple's
// dataset.
type emitter func(emit func(dataset string, t rdf.Triple) error) error

// runDatagen writes a synthetic benchmark federation (LUBM, QFed,
// LargeRDFBench-like or Bio2RDF-like) as one N-Triples file per endpoint,
// ready for lusail endpoint or lusail load. LUBM streams to disk triple by
// triple, so its memory is constant at any scale; -preset jumps straight
// to the paper's data magnitudes.
func runDatagen(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("datagen", stderr)
	benchmark := fs.String("benchmark", "lubm", "benchmark: lubm, qfed, lrb, bio2rdf")
	out := fs.String("out", ".", "output directory")
	scale := fs.Int("scale", 1, "scale factor")
	universities := fs.Int("universities", 4, "universities (lubm only)")
	preset := fs.String("preset", "", "lubm size preset: 100k, 1m, 10m (overrides -scale/-universities)")
	seed := fs.Int64("seed", 1, "random seed")
	if code, ok := parse(fs, args); !ok {
		return code
	}

	lubm := bench.DefaultLUBM(*universities)
	lubm.StudentsPerDept *= *scale
	if *preset != "" {
		p, ok := presets[strings.ToLower(*preset)]
		if !ok {
			return usage(fs, fmt.Errorf("unknown -preset %q, want 100k, 1m or 10m", *preset))
		}
		lubm = p
	}
	lubm.Seed = *seed
	var gen emitter
	switch *benchmark {
	case "lubm":
		gen = func(emit func(string, rdf.Triple) error) error { return bench.EmitLUBM(lubm, emit) }
	case "qfed":
		cfg := bench.DefaultQFed()
		cfg.Drugs *= *scale
		cfg.Diseases *= *scale
		cfg.Seed = *seed
		gen = replay(func() []bench.Dataset { return bench.GenerateQFed(cfg) })
	case "lrb":
		gen = replay(func() []bench.Dataset { return bench.GenerateLRB(bench.LRBConfig{Scale: *scale, Seed: *seed}) })
	case "bio2rdf":
		gen = replay(func() []bench.Dataset { return bench.GenerateBio2RDF(bench.Bio2RDFConfig{Scale: *scale, Seed: *seed}) })
	default:
		return usage(fs, fmt.Errorf("unknown -benchmark %q, want lubm, qfed, lrb or bio2rdf", *benchmark))
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(fs, err)
	}
	if err := writeFederation(ctx, gen, *out, stdout); err != nil {
		return fail(fs, err)
	}
	return 0
}

// replay is the emitter of a generator that builds its datasets in memory.
func replay(generate func() []bench.Dataset) emitter {
	return func(emit func(string, rdf.Triple) error) error {
		for _, ds := range generate() {
			for _, t := range ds.Triples {
				if err := emit(ds.Name, t); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// writeFederation writes each triple gen emits to its dataset's file under
// out as it is generated, and lists the files on stdout.
func writeFederation(ctx context.Context, gen emitter, out string, stdout io.Writer) error {
	type sink struct {
		name string
		path string
		f    *os.File
		w    *bufio.Writer
		n    int64
	}
	sinks := map[string]*sink{}
	var order []*sink
	err := gen(func(dataset string, t rdf.Triple) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		s, ok := sinks[dataset]
		if !ok {
			path := filepath.Join(out, strings.ToLower(strings.ReplaceAll(dataset, " ", "-"))+".nt")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			s = &sink{name: dataset, path: path, f: f, w: bufio.NewWriterSize(f, 1<<20)}
			sinks[dataset] = s
			order = append(order, s)
		}
		s.n++
		if _, err := s.w.WriteString(t.String()); err != nil {
			return err
		}
		return s.w.WriteByte('\n')
	})
	var total int64
	for _, s := range order {
		if ferr := s.w.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if cerr := s.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(stdout, "%-30s %8d triples -> %s\n", s.name, s.n, s.path)
			total += s.n
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-30s %8d triples total\n", "", total)
	return nil
}
