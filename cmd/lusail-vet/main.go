// Command lusail-vet runs lusail's two analyzer suites: the Go analyzers of
// internal/lint, which machine-check the engine's concurrency and
// resilience invariants (context threading, breaker admission pairing,
// typed-error discipline, stream closing, lock order, byte budgets), and
// the SPARQL checks of internal/sparql/sema, the same checks the engine
// runs before planning.
//
// Usage:
//
//	go run ./cmd/lusail-vet ./...                # Go packages and .rq files in the module
//	go run ./cmd/lusail-vet -corpus ./...        # and the built-in benchmark corpora
//	go run ./cmd/lusail-vet ./internal/core      # one package (and .rq files beside it)
//	go run ./cmd/lusail-vet queries/q1.rq        # one query file
//	go run ./cmd/lusail-vet -                    # query text on stdin
//	go run ./cmd/lusail-vet -run lockorder,cartesian ./...
//	go run ./cmd/lusail-vet -canon queries/q1.rq # canonical form + result-cache key
//	go run ./cmd/lusail-vet -list                # describe the analyzers and checks
//
// A directory argument loads the Go package there and the .rq files beside
// it; a trailing /... does so for the whole tree, skipping testdata,
// vendor, and hidden directories. With no arguments it vets ./... .
//
// Suppress a deliberate Go finding with a justified directive on (or
// directly above) the flagged line, and a deliberate query warning with
// one anywhere in the query text:
//
//	//lint:lusail-vet ctxflow -- detached background loop with own stop channel
//	# lusail-check: cartesian -- bound-join bridging makes this cross product cheap
//
// Exit codes: 0 clean, 1 findings, type errors, or parse failures, 2 usage
// or I/O errors. See the "Static analysis" and "Query analysis" sections of
// README.md and DESIGN.md §9 and §12.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"lusail/internal/bench"
	"lusail/internal/diag"
	"lusail/internal/lint"
	"lusail/internal/sparql"
	"lusail/internal/sparql/sema"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// rule is one entry of the combined registry: a Go analyzer or a query
// check.
type rule struct {
	name, doc string
	analyzer  *lint.Analyzer
	check     *sema.Check
}

// rules lists the Go analyzers, then the query checks, in suite order.
func rules() []rule {
	var out []rule
	for _, a := range lint.All() {
		out = append(out, rule{name: a.Name, doc: a.Doc, analyzer: a})
	}
	for _, c := range sema.All() {
		out = append(out, rule{name: c.Name, doc: fmt.Sprintf("(%s) %s", c.Severity, c.Doc), check: c})
	}
	return out
}

// query is one SPARQL query to vet.
type query struct {
	name string // display path ("<stdin>" for -)
	src  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lusail-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "", "comma-separated analyzer and check subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and checks and exit")
	canon := fs.Bool("canon", false, "print each query's canonical form and lusaild result-cache key instead of vetting")
	corpus := fs.Bool("corpus", false, "also vet the built-in benchmark corpora (LUBM, QFed, LargeRDFBench, Bio2RDF)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "lusail-vet: %v\n", err)
		return 2
	}

	selected := rules()
	if *runList != "" {
		var err error
		selected, err = diag.Lookup(selected, func(r rule) string { return r.name }, strings.Split(*runList, ","))
		if err != nil {
			return fail(fmt.Errorf("-run: %w", err))
		}
	}
	if *list {
		for _, r := range selected {
			fmt.Fprintf(stdout, "%s\n\t%s\n\n", r.name, strings.ReplaceAll(r.doc, "\n", "\n\t"))
		}
		return 0
	}
	var analyzers []*lint.Analyzer
	var checks []*sema.Check
	for _, r := range selected {
		if r.analyzer != nil {
			analyzers = append(analyzers, r.analyzer)
		} else {
			checks = append(checks, r.check)
		}
	}

	paths := fs.Args()
	if len(paths) == 0 {
		paths = []string{"./..."}
	}
	var loader *lint.Loader
	var pkgs []*lint.Package
	var queries []query
	for _, arg := range paths {
		if arg == "-" || strings.HasSuffix(arg, ".rq") {
			q, err := readQuery(arg)
			if err != nil {
				return fail(err)
			}
			queries = append(queries, q)
			continue
		}
		if loader == nil {
			var err error
			if loader, err = newLoader(); err != nil {
				return fail(err)
			}
		}
		root, recursive := strings.CutSuffix(arg, "/...")
		if root == "..." {
			root, recursive = ".", true
		}
		loaded, files, err := loader.Walk(root, recursive)
		if err != nil {
			return fail(err)
		}
		pkgs = append(pkgs, loaded...)
		for _, path := range files {
			q, err := readQuery(path)
			if err != nil {
				return fail(err)
			}
			queries = append(queries, q)
		}
	}
	if *corpus {
		queries = append(queries, corpusQueries()...)
	}

	failed := false
	if !*canon && len(pkgs) > 0 {
		for _, pkg := range pkgs {
			for _, terr := range pkg.TypeErrors {
				failed = true
				fmt.Fprintln(stderr, terr)
			}
		}
		for _, d := range lint.Run(pkgs, analyzers, loader.Fset) {
			failed = true
			fmt.Fprintln(stdout, d)
		}
	}
	for _, q := range queries {
		parsed, err := sparql.Parse(q.src)
		if err != nil {
			// A parse failure is a finding, not a tool abort, so one bad
			// file does not hide the rest.
			failed = true
			fmt.Fprintf(stdout, "%s:%s\n", q.name, parseDiagnostic(err))
			continue
		}
		if *canon {
			text := sema.CanonicalText(parsed)
			fmt.Fprintf(stdout, "# %s\n# key: %s\n%s\n", q.name, sema.KeyOf(text), text)
			continue
		}
		for _, d := range sema.AnalyzeWith(parsed, q.src, checks) {
			failed = true
			fmt.Fprintf(stdout, "%s:%s\n", q.name, d)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// readQuery reads one query file, or stdin for "-".
func readQuery(path string) (query, error) {
	if path == "-" {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			return query{}, fmt.Errorf("reading stdin: %w", err)
		}
		return query{name: "<stdin>", src: string(src)}, nil
	}
	src, err := os.ReadFile(path)
	return query{name: path, src: string(src)}, err
}

// parseDiagnostic renders a parse failure in the sema diagnostic form,
// positioned when the parser says where it failed.
func parseDiagnostic(err error) sparql.SemaDiagnostic {
	d := sparql.SemaDiagnostic{Check: "parse", Severity: sparql.SevError, Pos: -1, Message: err.Error()}
	var perr *sparql.ParseError
	if errors.As(err, &perr) {
		d.Pos, d.Line, d.Col = perr.Pos, perr.Line, perr.Col
		d.Message = perr.Msg
		if perr.Token != "" {
			d.Message += fmt.Sprintf(" (at %q)", perr.Token)
		}
	}
	return d
}

// corpusQueries returns every query in the built-in benchmark corpora as
// a pseudo-file named bench:<suite>/<query>, so the corpora the
// experiments run are held to the same bar as on-disk query files.
func corpusQueries() []query {
	var out []query
	for _, suite := range []struct {
		name    string
		queries []bench.Query
	}{
		{"lubm", bench.LUBMQueries()},
		{"qfed", bench.QFedQueries()},
		{"lrb-simple", bench.LRBSimpleQueries()},
		{"lrb-complex", bench.LRBComplexQueries()},
		{"lrb-large", bench.LRBLargeQueries()},
		{"bio2rdf", bench.Bio2RDFQueries()},
	} {
		for _, q := range suite.queries {
			out = append(out, query{name: fmt.Sprintf("bench:%s/%s", suite.name, q.Name), src: q.Text})
		}
	}
	return out
}

// newLoader returns a loader for the module enclosing the working
// directory.
func newLoader() (*lint.Loader, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return lint.NewLoader(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
