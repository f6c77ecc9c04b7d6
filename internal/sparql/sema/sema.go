// Package sema is lusail's static semantic analyzer for SPARQL queries: a
// registry of named checks over the parsed sparql.Query AST, a set of
// provably row-multiset-preserving rewrites, and a canonical normal form
// whose hash keys the server's plan cache.
//
// It shares internal/lint's shape (named checks, structured diagnostics
// with positions) and its suppression kernel, internal/diag, but targets
// the query language instead of the host language: Lusail's whole premise
// is deciding where and how to evaluate a query before sending anything
// over the network, and a malformed-but-parseable query (unbound FILTER
// variables, accidental cross products, unsatisfiable filters) otherwise
// sails straight into LADE decomposition and burns endpoint traffic before
// failing or returning garbage.
//
// Severity tiers follow sparql.Severity: error-tier findings describe
// queries that cannot mean what they say (the engine rejects them with a
// typed *sparql.SemaError before decomposition, and lusaild answers 400
// without spending an admission slot); warnings flag likely mistakes with
// well-defined answers and thread into Profile.Warnings; infos are cost
// notes.
//
// A deliberate finding is suppressed with a justified directive comment in
// the query text itself:
//
//	# lusail-check: cartesian -- bound-join bridging handles the cross product
//
// Directives are global to the query, apply only to warning- and info-tier
// findings (errors are never suppressible — the engine could not execute
// the query anyway), and are themselves checked: a malformed or unused
// directive is a diagnostic, so suppressions cannot rot. See the "Query
// analysis" section of README.md and DESIGN.md §12.
package sema

import (
	"fmt"
	"sort"
	"strings"

	"lusail/internal/diag"
	"lusail/internal/sparql"
)

// Check is one semantic analyzer over a parsed query.
type Check struct {
	// Name is the identifier used in output and suppression directives.
	Name string
	// Doc is a one-paragraph description of what the check flags.
	Doc string
	// Severity is the tier the check's findings carry.
	Severity sparql.Severity
	// Run reports the check's findings through the pass.
	Run func(*Pass)
}

// Pass carries one check's view of the query under analysis.
type Pass struct {
	Check *Check
	// Query is the parsed query under analysis. Checks must not mutate it.
	Query *sparql.Query
	// Src is the original query text when available ("" when analyzing a
	// programmatically built AST); it supplies line/column positions.
	Src string

	diags *[]sparql.SemaDiagnostic
}

// Reportf records a finding at the given byte offset with the check's
// severity tier.
func (p *Pass) Reportf(pos int, format string, args ...any) {
	p.report(p.Check.Severity, pos, format, args...)
}

// ReportfSeverity records a finding at an explicit tier, for checks whose
// findings vary in severity.
func (p *Pass) ReportfSeverity(sev sparql.Severity, pos int, format string, args ...any) {
	p.report(sev, pos, format, args...)
}

func (p *Pass) report(sev sparql.Severity, pos int, format string, args ...any) {
	d := sparql.SemaDiagnostic{
		Check:    p.Check.Name,
		Severity: sev,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	}
	if p.Src != "" {
		d.Line, d.Col = sparql.LineCol(p.Src, pos)
	}
	*p.diags = append(*p.diags, d)
}

// All returns the full check suite in output order.
func All() []*Check {
	return []*Check{
		checkUnboundVar,
		checkCartesian,
		checkFilterSat,
		checkDupPattern,
		checkOptWellDesigned,
	}
}

// registered holds the name of every check in All.
var registered = func() map[string]bool {
	m := map[string]bool{}
	for _, c := range All() {
		m[c.Name] = true
	}
	return m
}()

// DirectiveCheck is the pseudo-check name under which malformed and unused
// suppression directives are reported. It cannot be suppressed.
const DirectiveCheck = "directive"

// Analyze runs the full check suite over the query and returns the
// surviving diagnostics sorted by position. src, when non-empty, is the
// original query text: it supplies line/column positions and is scanned
// for suppression directives.
func Analyze(q *sparql.Query, src string) []sparql.SemaDiagnostic {
	return AnalyzeWith(q, src, All())
}

// AnalyzeWith is Analyze restricted to the given checks.
func AnalyzeWith(q *sparql.Query, src string, checks []*Check) []sparql.SemaDiagnostic {
	var raw []sparql.SemaDiagnostic
	for _, c := range checks {
		c.Run(&Pass{Check: c, Query: q, Src: src, diags: &raw})
	}

	running := map[string]bool{}
	for _, c := range checks {
		running[c.Name] = true
	}
	dirs := parseDirectives(src, running)
	out := diag.Apply(raw, dirs, covers, func(pos int, msg string) sparql.SemaDiagnostic {
		d := sparql.SemaDiagnostic{Check: DirectiveCheck, Severity: sparql.SevWarning, Pos: pos, Message: msg}
		if src != "" {
			d.Line, d.Col = sparql.LineCol(src, pos)
		}
		return d
	})

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// Vet runs Analyze and splits the result: error-tier findings become a
// typed *sparql.SemaError (nil when the query is clean), the rest are
// returned for warning channels. This is the entry point the engine and
// lusaild share, so a query rejected at the API edge is exactly one the
// engine would have rejected.
func Vet(q *sparql.Query, src string) (*sparql.SemaError, []sparql.SemaDiagnostic) {
	diags := Analyze(q, src)
	var errs, rest []sparql.SemaDiagnostic
	for _, d := range diags {
		if d.Severity == sparql.SevError {
			errs = append(errs, d)
		} else {
			rest = append(rest, d)
		}
	}
	if len(errs) > 0 {
		return &sparql.SemaError{Diagnostics: errs}, rest
	}
	return nil, rest
}

// directivePrefix introduces a suppression comment inside the query text.
const directivePrefix = "# lusail-check:"

// covers reports whether the directive suppresses the finding.
// Directives are query-global (SPARQL has no stable line structure worth
// anchoring to) and never cover error-tier findings.
func covers(d *diag.Directive[int], f sparql.SemaDiagnostic) bool {
	return f.Severity != sparql.SevError && d.Names(f.Check)
}

// parseDirectives extracts suppression directives from the query source's
// comment lines, validating check names against the suite and the run.
func parseDirectives(src string, running map[string]bool) []*diag.Directive[int] {
	if src == "" {
		return nil
	}
	var out []*diag.Directive[int]
	offset := 0
	for _, line := range strings.SplitAfter(src, "\n") {
		trimmed := strings.TrimLeft(line, " \t")
		pos := offset + (len(line) - len(trimmed))
		offset += len(line)
		if rest, ok := strings.CutPrefix(strings.TrimRight(trimmed, "\r\n"), directivePrefix); ok {
			out = append(out, diag.Parse(pos, rest, "check", registered, running))
		}
	}
	return out
}
