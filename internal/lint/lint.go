// Package lint is lusail's project-specific static-analysis suite: a set
// of analyzers over go/ast + go/types that machine-check the concurrency
// and resilience invariants the engine's correctness rests on. The
// invariants are ones the compiler cannot see and review has already
// missed once (PR 3 shipped circuit breakers that wedged in half-open
// because an admission was claimed twice); each analyzer encodes one such
// rule so it is re-checked on every push instead of re-discovered in
// production. See DESIGN.md "Machine-checked invariants".
//
// The suite is built only on the standard library (go/parser, go/types,
// go/importer) to preserve the repo's zero-third-party-dependency
// property. Run it with:
//
//	go run ./cmd/lusail-vet ./...
//
// A diagnostic on deliberate code is suppressed with a justified inline
// directive on, or on the line above, the flagged line:
//
//	//lint:lusail-vet ctxflow -- detached background loop with own stop channel
//
// The justification after " -- " is mandatory; malformed or unused
// directives are themselves diagnostics, so suppressions cannot rot. The
// directive grammar and that rule live in internal/diag, shared with the
// SPARQL checks of internal/sparql/sema.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"lusail/internal/diag"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the go-vet-style "file:line:col: analyzer: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the identifier used in output and suppression directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Module marks whole-program analyzers: Run is invoked once with
	// Pass.Prog set (and Pkg nil) instead of once per package. These are
	// the interprocedural checks that need call-graph summaries.
	Module bool
	// Run reports the analyzer's findings through the pass: over one
	// package (Pass.Pkg) for per-package analyzers, over the whole program
	// (Pass.Prog) for Module analyzers.
	Run func(*Pass)
}

// Pass carries one analyzer's view of the code under analysis.
type Pass struct {
	Analyzer *Analyzer
	// Pkg is the package under analysis; nil for Module analyzers.
	Pkg *Package
	// Prog is the module-wide call-graph view; set for Module analyzers
	// (and for everyone else when any Module analyzer is in the run).
	Prog *Program
	Fset *token.FileSet

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in output order.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerCtxflow,
		analyzerPairedAdmission,
		analyzerErrwrap,
		analyzerStreamclose,
		analyzerLockorder,
		analyzerBudgetbound,
	}
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "//lint:lusail-vet"

// DirectiveAnalyzer is the pseudo-analyzer name under which malformed and
// unused suppression directives are reported. It cannot be suppressed.
const DirectiveAnalyzer = "directive"

// parseDirectives extracts suppression directives from a package's
// comments, validating analyzer names against the suite and the run.
func parseDirectives(pkg *Package, fset *token.FileSet, known, running map[string]bool) []*diag.Directive[token.Position] {
	var out []*diag.Directive[token.Position]
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if rest != "" && !strings.HasPrefix(rest, " ") {
					out = append(out, diag.Malformed(pos, "malformed directive: expected \""+directivePrefix+" <analyzer>[,<analyzer>] -- <justification>\""))
					continue
				}
				out = append(out, diag.Parse(pos, rest, "analyzer", known, running))
			}
		}
	}
	return out
}

// covers reports whether the directive suppresses the finding: it names
// the analyzer, and the finding is on the directive's line or the line
// immediately below (directive-above-statement style).
func covers(d *diag.Directive[token.Position], f Diagnostic) bool {
	return d.Names(f.Analyzer) && f.Pos.Filename == d.Pos.Filename &&
		(f.Pos.Line == d.Pos.Line || f.Pos.Line == d.Pos.Line+1)
}

// Run executes the analyzers over the packages and returns the surviving
// diagnostics sorted by position: suppressed findings are dropped, and
// malformed or unused suppression directives are reported under the
// "directive" pseudo-analyzer.
//
// Per-package analyzers run once per package; Module analyzers run once
// over a Program built from all the packages. Suppression directives are
// matched globally, because a Module analyzer's diagnostics land in any
// package's files.
func Run(pkgs []*Package, analyzers []*Analyzer, fset *token.FileSet) []Diagnostic {
	known, running := map[string]bool{}, map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		running[a.Name] = true
	}

	var prog *Program
	var raw []Diagnostic
	for _, a := range analyzers {
		if a.Module {
			if prog == nil {
				prog = BuildProgram(pkgs, fset)
			}
			a.Run(&Pass{Analyzer: a, Prog: prog, Fset: fset, diags: &raw})
		} else {
			for _, pkg := range pkgs {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, Prog: prog, Fset: fset, diags: &raw})
			}
		}
	}

	var dirs []*diag.Directive[token.Position]
	for _, pkg := range pkgs {
		dirs = append(dirs, parseDirectives(pkg, fset, known, running)...)
	}
	out := diag.Apply(raw, dirs, covers, func(pos token.Position, msg string) Diagnostic {
		return Diagnostic{Analyzer: DirectiveAnalyzer, Pos: pos, Message: msg}
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
