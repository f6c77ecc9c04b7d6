package sema

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lusail/internal/sparql"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestGolden runs the full analyzer over every query in testdata/ and
// compares the rendered diagnostics (with positions) against the matching
// .golden file. Regenerate with: go test ./internal/sparql/sema -update
func TestGolden(t *testing.T) {
	queries, err := filepath.Glob(filepath.Join("testdata", "*.rq"))
	if err != nil || len(queries) == 0 {
		t.Fatalf("no testdata queries: %v", err)
	}
	for _, path := range queries {
		name := strings.TrimSuffix(filepath.Base(path), ".rq")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			q, err := sparql.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			var b strings.Builder
			for _, d := range Analyze(q, string(src)) {
				b.WriteString(d.String())
				b.WriteString("\n")
			}
			got := b.String()
			goldenPath := strings.TrimSuffix(path, ".rq") + ".golden"
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

func mustParse(t *testing.T, src string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return q
}

func TestVetSplitsErrorTier(t *testing.T) {
	src := `SELECT ?s WHERE {
  ?s <http://p> ?o .
  ?lonely <http://q> ?island .
  FILTER(?nope > 1)
}`
	q := mustParse(t, src)
	semaErr, rest := Vet(q, src)
	if semaErr == nil {
		t.Fatal("expected error-tier findings")
	}
	for _, d := range semaErr.Diagnostics {
		if d.Severity != sparql.SevError {
			t.Errorf("non-error diagnostic in SemaError: %s", d)
		}
		if d.Line == 0 {
			t.Errorf("diagnostic lost line info: %+v", d)
		}
	}
	foundCartesian := false
	for _, d := range rest {
		if d.Severity == sparql.SevError {
			t.Errorf("error-tier diagnostic leaked into warnings: %s", d)
		}
		if d.Check == "cartesian" {
			foundCartesian = true
		}
	}
	if !foundCartesian {
		t.Errorf("expected cartesian warning alongside the error, got %v", rest)
	}

	clean := mustParse(t, `SELECT ?s WHERE { ?s <http://p> ?o }`)
	if e, _ := Vet(clean, ""); e != nil {
		t.Errorf("clean query rejected: %v", e)
	}
}

func TestErrorsNotSuppressible(t *testing.T) {
	src := `# lusail-check: unboundvar -- trying to silence an error
SELECT ?s WHERE {
  ?s <http://p> ?o .
  FILTER(?nope > 1)
}`
	q := mustParse(t, src)
	semaErr, rest := Vet(q, src)
	if semaErr == nil {
		t.Fatal("error-tier finding was suppressed")
	}
	// The directive covered nothing (errors are exempt), so it must be
	// flagged as unused.
	foundUnused := false
	for _, d := range rest {
		if d.Check == DirectiveCheck && strings.Contains(d.Message, "unused") {
			foundUnused = true
		}
	}
	if !foundUnused {
		t.Errorf("expected unused-directive finding, got %v", rest)
	}
}

// --- Rewrites ---

func TestRewriteConstFoldAndDeadFilter(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://p> ?o . FILTER(1 < 2) . FILTER(?o > 2 + 3) }`)
	out, notes := Rewrite(q)
	s := out.String()
	if strings.Contains(s, "1") && strings.Contains(s, "<http://p>") && strings.Count(s, "FILTER") != 1 {
		t.Errorf("constant-true filter not removed: %s", s)
	}
	if !strings.Contains(s, "\"5\"") {
		t.Errorf("2 + 3 not folded: %s", s)
	}
	if len(notes) == 0 {
		t.Error("no rewrite notes")
	}
	// Input untouched.
	if strings.Count(q.String(), "FILTER") != 2 {
		t.Errorf("input query mutated: %s", q.String())
	}
}

func TestRewriteDedup(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://p> ?o . ?s <http://p> ?o . ?s <http://q> ?z }`)
	out, _ := Rewrite(q)
	if n := len(out.Where.TriplePatterns()); n != 2 {
		t.Errorf("dedup left %d patterns: %s", n, out.String())
	}
}

func TestRewriteDeadOptional(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://p> ?o . OPTIONAL { ?s <http://q> ?z . FILTER(FALSE) } }`)
	out, _ := Rewrite(q)
	if strings.Contains(out.String(), "OPTIONAL") {
		t.Errorf("dead OPTIONAL survived: %s", out.String())
	}
}

func TestRewriteDeadUnionBranch(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { { ?s <http://p> ?o } UNION { ?s <http://q> ?o . FILTER(1 = 2) } }`)
	out, _ := Rewrite(q)
	if strings.Contains(out.String(), "UNION") {
		t.Errorf("dead UNION branch survived: %s", out.String())
	}
	// All-dead unions must keep one branch: the group still yields no rows.
	q2 := mustParse(t, `SELECT ?s WHERE { { ?s <http://p> ?o . FILTER(FALSE) } UNION { ?s <http://q> ?o . FILTER(FALSE) } }`)
	out2, _ := Rewrite(q2)
	if !strings.Contains(out2.String(), "FILTER") {
		t.Errorf("all-dead union lost its emptiness: %s", out2.String())
	}
}

func TestRewriteFilterPushdown(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE {
		?s <http://name> ?n .
		{ ?s <http://p> ?o } UNION { ?s <http://q> ?o }
		FILTER(?o > 5)
	}`)
	out, notes := Rewrite(q)
	s := out.String()
	if strings.Count(s, "FILTER") != 2 {
		t.Errorf("filter not pushed into both branches: %s", s)
	}
	pushed := false
	for _, n := range notes {
		if strings.HasPrefix(n, "pushdown:") {
			pushed = true
		}
	}
	if !pushed {
		t.Errorf("no pushdown note: %v", notes)
	}

	// A filter whose variable is NOT certainly bound by every branch must
	// stay at group level.
	q2 := mustParse(t, `SELECT ?s WHERE {
		?s <http://name> ?n .
		{ ?s <http://p> ?o } UNION { ?s <http://q> ?w }
		FILTER(?o > 5)
	}`)
	out2, _ := Rewrite(q2)
	if strings.Count(out2.String(), "FILTER") != 1 {
		t.Errorf("unsound pushdown happened: %s", out2.String())
	}
}

func TestRewritePreservesErroringExpressions(t *testing.T) {
	// 1/0 errors; !error is error (row dropped), while !false would be
	// true (row kept). The folder must not touch it.
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://p> ?o . FILTER(!(1 / 0 > 1)) }`)
	out, _ := Rewrite(q)
	if !strings.Contains(out.String(), "/") {
		t.Errorf("erroring subexpression was folded: %s", out.String())
	}
}

// --- Canonicalization ---

func TestCanonicalKeyMergesSpellings(t *testing.T) {
	a := mustParse(t, `PREFIX ub: <http://lubm.org/u#>
		SELECT ?x WHERE { ?x ub:advisor ?prof . ?prof ub:worksFor ?dept . FILTER(?prof != ?dept) }`)
	b := mustParse(t, `SELECT   ?x
		WHERE {
			?p2 <http://lubm.org/u#worksFor>    ?d2 .
			FILTER(?p2 != ?d2)
			?x <http://lubm.org/u#advisor> ?p2 .
		}`)
	if Key(a) != Key(b) {
		t.Errorf("α-renamed/reformatted spellings got different keys:\n%s\n%s", CanonicalText(a), CanonicalText(b))
	}
}

func TestCanonicalKeySeparatesDifferentQueries(t *testing.T) {
	cases := [][2]string{
		{`SELECT ?x WHERE { ?x <http://p> ?y }`, `SELECT ?y WHERE { ?x <http://p> ?y }`},
		{`SELECT ?x WHERE { ?x <http://p> ?y }`, `SELECT DISTINCT ?x WHERE { ?x <http://p> ?y }`},
		{`SELECT ?x WHERE { ?x <http://p> ?y }`, `SELECT ?x WHERE { ?x <http://p> ?y } LIMIT 5`},
		{`SELECT ?x WHERE { ?x <http://p> ?y . OPTIONAL { ?y <http://q> ?z } }`,
			`SELECT ?x WHERE { ?x <http://p> ?y . ?y <http://q> ?z }`},
		{`SELECT ?x WHERE { ?x <http://p> "a" }`, `SELECT ?x WHERE { ?x <http://p> "b" }`},
		// Same skeleton, different join structure: must NOT merge.
		{`SELECT ?x WHERE { ?x <http://p> ?y . ?y <http://q> ?z }`,
			`SELECT ?x WHERE { ?x <http://p> ?y . ?x <http://q> ?z }`},
	}
	for _, c := range cases {
		a, b := mustParse(t, c[0]), mustParse(t, c[1])
		if Key(a) == Key(b) {
			t.Errorf("semantically different queries share a key:\n  %s\n  %s\ncanonical: %s", c[0], c[1], CanonicalText(a))
		}
	}
}

func TestCanonicalStarKeepsNames(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?alpha <http://p> ?beta }`)
	text := CanonicalText(q)
	if !strings.Contains(text, "?alpha") || !strings.Contains(text, "?beta") {
		t.Errorf("SELECT * variables were renamed: %s", text)
	}
}

func TestCanonicalDoesNotMutateInput(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE { ?x <http://p> ?internal . FILTER(?internal > 1) }`)
	before := q.String()
	_ = Key(q)
	if q.String() != before {
		t.Errorf("canonicalization mutated its input: %s", q.String())
	}
}

func TestCanonicalOrderInsensitiveOnlyWithinRuns(t *testing.T) {
	// Patterns must not be reordered across an OPTIONAL: left-join order
	// is semantics.
	a := mustParse(t, `SELECT ?x WHERE { ?x <http://b> ?y . OPTIONAL { ?y <http://o> ?z } . ?x <http://a> ?w }`)
	b := mustParse(t, `SELECT ?x WHERE { ?x <http://a> ?w . ?x <http://b> ?y . OPTIONAL { ?y <http://o> ?z } }`)
	if Key(a) == Key(b) {
		t.Error("patterns were reordered across an OPTIONAL boundary")
	}
}

// TestSemaRegistryMatchesDocs pins the check registry: the documented
// checks, in suite order, each carrying a Doc and each mentioned in
// README.md and DESIGN.md, so the registry and the docs cannot drift apart.
func TestSemaRegistryMatchesDocs(t *testing.T) {
	want := []string{"unboundvar", "cartesian", "filtersat", "duppattern", "optwelldesigned"}
	var names []string
	for _, c := range All() {
		names = append(names, c.Name)
		if strings.TrimSpace(c.Doc) == "" {
			t.Errorf("check %s has no Doc", c.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("registry = %v, want %v", names, want)
	}
	for _, file := range []string{"../../../README.md", "../../../DESIGN.md"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if !strings.Contains(string(data), "`"+name+"`") {
				t.Errorf("%s does not mention check %s", file, name)
			}
		}
	}
}
