package sparql

import (
	"fmt"
	"strings"
)

// ParseError is the typed error Parse returns for malformed queries. Every
// parse failure carries the byte offset, the 1-based line and column, and
// the text of the offending token, so tools (lusail-vet, lusaild's 400
// bodies, editor integrations) can point at the exact failure site.
//
// It replaces the anonymous fmt.Errorf chain the parser historically
// produced; errors.As(err, &pe) with pe *sparql.ParseError distinguishes
// syntax errors from execution errors.
type ParseError struct {
	// Pos is the byte offset of the failure in the query text, or -1 when
	// the failing position is unknown.
	Pos int
	// Line and Col are the 1-based line and column of Pos (0 when Pos is
	// unknown).
	Line, Col int
	// Token is the text of the offending token, when one was identified
	// ("" at end of input or when the failure is not tied to a token).
	Token string
	// Msg describes the syntax problem.
	Msg string
}

// Error implements error, keeping the historical "sparql:" prefix.
func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("sparql: %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	if e.Pos >= 0 {
		return fmt.Sprintf("sparql: offset %d: %s", e.Pos, e.Msg)
	}
	return "sparql: " + e.Msg
}

// LineCol converts a byte offset into 1-based line and column numbers for
// the given source text. Columns count bytes, matching go/token's column
// convention for ASCII-dominated input. An offset outside src yields (0, 0).
func LineCol(src string, pos int) (line, col int) {
	if pos < 0 || pos > len(src) {
		return 0, 0
	}
	line = 1
	last := 0
	for i := 0; i < pos; i++ {
		if src[i] == '\n' {
			line++
			last = i + 1
		}
	}
	return line, pos - last + 1
}

// Severity tiers a semantic diagnostic. Error-tier diagnostics describe
// queries that are syntactically valid but semantically broken (per SPARQL
// semantics they silently yield empty or meaningless answers); lusaild
// rejects them with a structured 400 and Engine.Plan returns a *SemaError.
// Warnings flag likely mistakes that still have well-defined answers;
// infos are style/cost notes.
type Severity int

const (
	// SevInfo is a style or cost note (duplicate pattern, constant filter).
	SevInfo Severity = iota
	// SevWarning flags a likely mistake with a well-defined answer
	// (cartesian product, provably empty filter, OPTIONAL ordering).
	SevWarning
	// SevError flags a query that cannot mean what it says (a FILTER over a
	// variable the pattern group never binds always errors to false).
	SevError
)

// String returns the lowercase tier name.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return "info"
}

// MarshalJSON renders the tier name, so JSON consumers see "error" rather
// than an enum ordinal that could drift.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the tier name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	switch strings.Trim(string(data), `"`) {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("sparql: unknown severity %s", data)
	}
	return nil
}

// SemaDiagnostic is one finding of the static query analyzer
// (internal/sparql/sema): a named check, a severity tier, a position in the
// query text, and a message. Line/Col are filled when the analyzer has the
// query source; Pos alone when it only has the AST.
type SemaDiagnostic struct {
	// Check is the registry name of the analyzer that produced the finding.
	Check string `json:"check"`
	// Severity is the diagnostic tier.
	Severity Severity `json:"severity"`
	// Pos is the byte offset into the query text (-1 unknown).
	Pos int `json:"pos"`
	// Line and Col are 1-based when the source text was available.
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
	// Message describes the finding.
	Message string `json:"message"`
}

// String renders "line:col: check: severity: message" (or "offset N" when
// no line is known), the lusail-vet output line after the file name.
func (d SemaDiagnostic) String() string {
	switch {
	case d.Line > 0:
		return fmt.Sprintf("%d:%d: %s: %s: %s", d.Line, d.Col, d.Check, d.Severity, d.Message)
	case d.Pos >= 0:
		return fmt.Sprintf("offset %d: %s: %s: %s", d.Pos, d.Check, d.Severity, d.Message)
	}
	return fmt.Sprintf("%s: %s: %s", d.Check, d.Severity, d.Message)
}

// SemaError is the typed error for queries rejected by static semantic
// analysis: syntactically valid, semantically broken. It carries every
// error-tier diagnostic (warnings and infos are reported through other
// channels — Profile.Warnings in the engine, the diagnostics list in
// lusail-vet).
type SemaError struct {
	Diagnostics []SemaDiagnostic
}

// Error summarizes the first diagnostic and the total count.
func (e *SemaError) Error() string {
	if len(e.Diagnostics) == 0 {
		return "sparql: query rejected by semantic analysis"
	}
	var b strings.Builder
	b.WriteString("sparql: ")
	b.WriteString(e.Diagnostics[0].String())
	if n := len(e.Diagnostics) - 1; n > 0 {
		fmt.Fprintf(&b, " (and %d more)", n)
	}
	return b.String()
}
