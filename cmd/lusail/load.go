package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"lusail/internal/diskstore"
	"lusail/internal/rdf"
)

// runLoad bulk-loads N-Triples files (the arguments, or stdin for "-" or
// none) into a disk store that lusail endpoint -store disk:<out> serves.
// Input streams through an external merge sort, so memory stays within
// -mem however large the input is. The store is written to <out>.tmp and
// renamed into place only when the build completes, so a failed or
// cancelled load never leaves a partial store.
func runLoad(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("load", stderr)
	out := fs.String("out", "", "output store file (required)")
	mem := fs.Int64("mem", 64, "sort-buffer memory budget in MiB")
	dictBlock := fs.Int("dict-block", 0, "terms per dictionary block (default 16)")
	tripleBlock := fs.Int("block", 0, "triples per index block (default 4096)")
	verify := fs.Bool("verify", false, "re-open the store after loading and check counts")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	if code, ok := parse(fs, args); !ok {
		return code
	}
	if *out == "" {
		return usage(fs, errors.New("-out is required"))
	}
	inputs := fs.Args()
	if len(inputs) == 0 {
		inputs = []string{"-"}
	}
	progress := stdout
	if *quiet {
		progress = io.Discard
	}

	loader, err := diskstore.NewLoader(*out, diskstore.BuildOptions{
		DictBlockSize:   *dictBlock,
		TripleBlockSize: *tripleBlock,
		MemoryBudget:    *mem << 20,
	})
	if err != nil {
		return fail(fs, err)
	}
	defer loader.Abort()
	start := time.Now()
	for _, input := range inputs {
		n, err := addFile(ctx, loader, input, progress)
		if err != nil {
			return fail(fs, fmt.Errorf("%s: %w", input, err))
		}
		fmt.Fprintf(progress, "read %-40s %10d triples\n", input, n)
	}
	stats, err := loader.Finish()
	if err != nil {
		return fail(fs, err)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(progress, "loaded %d triples (%d distinct, %d terms) into %s: %s (%.0f triples/s, %.1f MiB)\n",
		stats.TriplesAdded, stats.Triples, stats.Terms, *out, elapsed.Round(time.Millisecond),
		float64(stats.TriplesAdded)/elapsed.Seconds(), float64(stats.FileBytes)/(1<<20))
	if !*verify {
		return 0
	}

	ds, err := diskstore.Open(*out, diskstore.Options{})
	if err != nil {
		return fail(fs, fmt.Errorf("verify: %w", err))
	}
	defer ds.Close()
	if int64(ds.Len()) != stats.Triples {
		return fail(fs, fmt.Errorf("verify: store reports %d triples, loader wrote %d", ds.Len(), stats.Triples))
	}
	total := 0
	for _, p := range ds.Predicates() {
		total += ds.PredicateCount(p)
	}
	if int64(total) != stats.Triples {
		return fail(fs, fmt.Errorf("verify: predicate counts sum to %d, want %d", total, stats.Triples))
	}
	fmt.Fprintf(progress, "verify ok: %d triples, %d predicates\n", ds.Len(), len(ds.Predicates()))
	return 0
}

// addFile streams the N-Triples input path into the loader line by line;
// the line numbers in its errors count from the start of this input.
func addFile(ctx context.Context, loader *diskstore.Loader, path string, progress io.Writer) (int64, error) {
	in, err := openInput(path)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var n int64
	for line := 1; sc.Scan(); line++ {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		t, err := rdf.ParseTripleLine(text)
		if err != nil {
			return n, fmt.Errorf("line %d: %w", line, err)
		}
		if err := loader.Add(t); err != nil {
			return n, err
		}
		if n++; n%5_000_000 == 0 {
			fmt.Fprintf(progress, "  ... %d triples\n", n)
		}
	}
	return n, sc.Err()
}
