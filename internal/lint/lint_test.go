package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lusail/internal/diag"
	"lusail/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// vetdataDir is the root of the testdata source tree, addressed under the
// synthetic import prefix "vetdata".
const vetdataDir = "testdata/src/vetdata"

// newTestLoader returns a loader for the lusail module with the vetdata
// prefix mapped in. Loaders are cheap; the expensive standard-library
// type-checking is memoized per loader, so each test pays it once.
func newTestLoader(t *testing.T) *lint.Loader {
	t.Helper()
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	vetdata, err := filepath.Abs(vetdataDir)
	if err != nil {
		t.Fatal(err)
	}
	loader.Extra = map[string]string{"vetdata": vetdata}
	return loader
}

// runOn loads one vetdata package and runs the named analyzers (all when
// names is nil), returning the rendered diagnostics with positions made
// relative to the testdata root so goldens are machine-independent.
func runOn(t *testing.T, loader *lint.Loader, relPkg string, names []string) []string {
	t.Helper()
	return runOnTree(t, loader, []string{relPkg}, names)
}

// runOnTree loads several vetdata packages into a single lint.Run, so
// Module analyzers build their call graph over the whole set — the shape
// interprocedural goldens need (leaf helpers, wrapper packages, and the
// roots that reach through them).
func runOnTree(t *testing.T, loader *lint.Loader, relPkgs []string, names []string) []string {
	t.Helper()
	var pkgs []*lint.Package
	for _, relPkg := range relPkgs {
		importPath := "vetdata/" + relPkg
		pkg, err := loader.LoadDir(filepath.Join(vetdataDir, relPkg), importPath)
		if err != nil {
			t.Fatalf("loading %s: %v", importPath, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("type error in %s: %v", importPath, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	analyzers := lint.All()
	if names != nil {
		var err error
		analyzers, err = diag.Lookup(analyzers, func(a *lint.Analyzer) string { return a.Name }, names)
		if err != nil {
			t.Fatal(err)
		}
	}
	abs, err := filepath.Abs(vetdataDir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range lint.Run(pkgs, analyzers, loader.Fset) {
		s := d.String()
		if rel, err := filepath.Rel(abs, d.Pos.Filename); err == nil {
			s = filepath.ToSlash(rel) + strings.TrimPrefix(s, d.Pos.Filename)
		}
		out = append(out, s)
	}
	return out
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	text := strings.Join(got, "\n")
	if len(got) > 0 {
		text += "\n"
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if string(want) != text {
		t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", path, text, want)
	}
}

// TestAnalyzerGoldens runs each analyzer against its violation package and
// asserts the exact file:line:col diagnostics. One shared loader keeps the
// stdlib type-checking cost to a single pass.
func TestAnalyzerGoldens(t *testing.T) {
	loader := newTestLoader(t)
	for _, tc := range []struct {
		pkg   string
		names []string
	}{
		{"ctxflow", []string{"ctxflow"}},
		{"pairedadmission", []string{"pairedadmission"}},
		{"errwrap", []string{"errwrapdiscipline"}},
		{"streamclose", []string{"streamclose"}},
	} {
		t.Run(tc.pkg, func(t *testing.T) {
			got := runOn(t, loader, tc.pkg, tc.names)
			if len(got) == 0 {
				t.Errorf("violation package %s produced no diagnostics", tc.pkg)
			}
			checkGolden(t, tc.pkg, got)
		})
	}
}

// TestInterproceduralGoldens runs each Module analyzer over its multi-
// package violation tree and asserts the exact diagnostics: a lock-order
// cycle closed through a helper two packages away, and a budget check
// performed by a wrapper in another package.
func TestInterproceduralGoldens(t *testing.T) {
	loader := newTestLoader(t)
	for _, tc := range []struct {
		name  string
		pkgs  []string
		names []string
	}{
		{"lockorder", []string{"lockorder/leaf", "lockorder/mid", "lockorder/root"}, []string{"lockorder"}},
		{"budgetbound", []string{"budgetbound", "budgetbound/guard"}, []string{"budgetbound"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runOnTree(t, loader, tc.pkgs, tc.names)
			if len(got) == 0 {
				t.Errorf("violation tree %s produced no diagnostics", tc.name)
			}
			checkGolden(t, tc.name, got)
		})
	}
}

// TestSuppression checks the directive machinery end to end: justified
// directives silence findings, while malformed, unknown, and unused ones
// surface as "directive" diagnostics alongside the unsuppressed originals.
func TestSuppression(t *testing.T) {
	loader := newTestLoader(t)
	got := runOn(t, loader, "suppressed", nil)
	checkGolden(t, "suppressed", got)

	for _, line := range got {
		if strings.Contains(line, "daemonRoot") || strings.Contains(line, "sameLine") {
			t.Errorf("justified suppression leaked a diagnostic: %s", line)
		}
	}
	wantSubstrings := []string{
		"suppression without justification",
		"unknown analyzer",
		"unused suppression directive",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, line := range got {
			if strings.Contains(line, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive diagnostic containing %q in:\n%s", want, strings.Join(got, "\n"))
		}
	}
}

// TestMultiPackage loads the two multipkg units: the diagnostics in a
// depend on resolving the errors b exports, across the package boundary.
func TestMultiPackage(t *testing.T) {
	loader := newTestLoader(t)
	gotB := runOn(t, loader, "multipkg/b", []string{"errwrapdiscipline"})
	if len(gotB) != 0 {
		t.Errorf("multipkg/b should be clean, got:\n%s", strings.Join(gotB, "\n"))
	}
	gotA := runOn(t, loader, "multipkg/a", []string{"errwrapdiscipline"})
	if len(gotA) == 0 {
		t.Error("multipkg/a produced no diagnostics: cross-package type resolution failed")
	}
	checkGolden(t, "multipkg", gotA)
}

// TestRegistryMatchesDocs pins the analyzer registry: the documented
// analyzers, in suite order, each carrying a Doc and each mentioned in
// README.md and DESIGN.md, so the registry and the docs cannot drift apart.
func TestRegistryMatchesDocs(t *testing.T) {
	want := []string{"ctxflow", "pairedadmission", "errwrapdiscipline", "streamclose", "lockorder", "budgetbound"}
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
		if strings.TrimSpace(a.Doc) == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("registry = %v, want %v", names, want)
	}
	for _, file := range []string{"../../README.md", "../../DESIGN.md"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if !strings.Contains(string(data), "`"+name+"`") {
				t.Errorf("%s does not mention analyzer %s", file, name)
			}
		}
	}
}

// TestRealTreeClean is the dogfood gate: the analyzers must exit clean on
// the repository itself (true positives fixed, deliberate roots carrying
// justified directives). Skipped under -short: it type-checks the whole
// module including its standard-library imports.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped under -short")
	}
	loader := newTestLoader(t)
	pkgs, _, err := loader.Walk(loader.ModuleDir, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("type error in %s: %v", pkg.Path, terr)
		}
	}
	for _, d := range lint.Run(pkgs, lint.All(), loader.Fset) {
		t.Errorf("unexpected diagnostic on the real tree: %s", d)
	}
}
