// Package diag is the diagnostics kernel shared by lusail's two analyzer
// suites: internal/lint over the Go tree and internal/sparql/sema over
// SPARQL queries. It holds what the suites have in common and nothing
// that reads either language: name lookup over a registry, the grammar of
// a justified suppression directive, and the rule that reports malformed
// and unused directives, so suppressions cannot rot.
//
// A directive's text, after the suite's own prefix, is
//
//	<name>[,<name>...] -- <justification>
//
// Each suite keeps its own position type and its own rule for which
// findings a directive covers: line-anchored for Go, query-global for
// SPARQL. The package imports neither go/ast nor go/types, so the query
// service links it without the Go analyzers.
package diag

import (
	"fmt"
	"strings"
)

// Lookup returns the entries of reg whose names are listed, in registry
// order. Empty list entries are ignored, so a trailing comma is harmless.
// A listed name that reg does not hold is an error naming the first such
// name in argument order.
func Lookup[T any](reg []T, name func(T) string, names []string) ([]T, error) {
	want := map[string]bool{}
	for _, n := range names {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	var out []T
	for _, e := range reg {
		if want[name(e)] {
			out = append(out, e)
			delete(want, name(e))
		}
	}
	for _, n := range names {
		if n = strings.TrimSpace(n); want[n] {
			return nil, fmt.Errorf("unknown name %q", n)
		}
	}
	return out, nil
}

// Directive is one suppression directive at a position of type P.
type Directive[P any] struct {
	Pos P
	// names are the rules the directive suppresses that are part of this
	// run.
	names []string
	// bad is non-empty for a malformed directive, with the reason.
	bad  string
	used bool
}

// Parse reads one directive from text, the comment after the suite's
// prefix. noun names a registry entry in messages ("analyzer", "check").
// known holds every name of the suite's registry and running the names in
// this run. A directive that names only rules outside this run cannot be
// marked used, so it is not held to the unused rule.
func Parse[P any](pos P, text, noun string, known, running map[string]bool) *Directive[P] {
	d := &Directive[P]{Pos: pos}
	names, justification, found := strings.Cut(text, " -- ")
	if !found || strings.TrimSpace(justification) == "" {
		d.bad = "suppression without justification: append \" -- <why this is safe>\""
		return d
	}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		switch {
		case n == "":
		case !known[n]:
			d.bad = fmt.Sprintf("unknown %s %q in suppression", noun, n)
			return d
		case running[n]:
			d.names = append(d.names, n)
		default:
			d.used = true
		}
	}
	if len(d.names) == 0 && !d.used {
		d.bad = "suppression names no " + noun
	}
	return d
}

// Malformed returns a directive that is reported as malformed for reason.
func Malformed[P any](pos P, reason string) *Directive[P] {
	return &Directive[P]{Pos: pos, bad: reason}
}

// Names reports whether the directive is well formed and suppresses rule.
func (d *Directive[P]) Names(rule string) bool {
	if d.bad != "" {
		return false
	}
	for _, n := range d.names {
		if n == rule {
			return true
		}
	}
	return false
}

// Apply drops every finding that a directive covers and marks each
// covering directive used. covers is the suite's rule, and it should test
// Names. The surviving findings come back in order, followed by one
// finding per malformed or unused directive, built by report.
func Apply[P, D any](findings []D, dirs []*Directive[P], covers func(*Directive[P], D) bool, report func(pos P, msg string) D) []D {
	var out []D
	for _, f := range findings {
		suppressed := false
		for _, d := range dirs {
			if covers(d, f) {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	for _, d := range dirs {
		switch {
		case d.bad != "":
			out = append(out, report(d.Pos, d.bad))
		case !d.used:
			out = append(out, report(d.Pos, "unused suppression directive: nothing to suppress here; delete it"))
		}
	}
	return out
}
