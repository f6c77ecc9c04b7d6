package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	ctxflowPkg = "../../internal/lint/testdata/src/vetdata/ctxflow"
	cleanPkg   = "../../internal/diag"
	semaData   = "../../internal/sparql/sema/testdata"
)

// vet runs the command with args and returns its exit code and output.
func vet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// withStdin points os.Stdin at a file holding text for one test.
func withStdin(t *testing.T, text string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdin")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = f
	t.Cleanup(func() { os.Stdin = old; f.Close() })
}

// TestExitCodes pins the exit-code contract: 0 clean, 1 findings, type
// errors, or parse failures, 2 usage or I/O errors.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"clean package and query", []string{cleanPkg, semaData + "/clean.rq"}, 0},
		{"clean query directory", []string{"../../examples/queries"}, 0},
		{"Go findings", []string{ctxflowPkg}, 1},
		{"query findings", []string{semaData + "/cartesian.rq"}, 1},
		{"type errors", []string{"testdata/typeerr"}, 1},
		{"unknown flag", []string{"-sarif", cleanPkg}, 2},
		{"unknown name", []string{"-run", "nosuch", cleanPkg}, 2},
		{"missing query file", []string{"nosuch.rq"}, 2},
		{"missing directory", []string{"nosuch/..."}, 2},
		{"Go file, not a directory", []string{"main.go"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, stdout, stderr := vet(t, tc.args...); code != tc.want {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.want, stdout, stderr)
			}
		})
	}
}

// TestGoAndQueryInOneRun vets a Go package and a query file together, and
// -run picks one analyzer and one check out of the two registries.
func TestGoAndQueryInOneRun(t *testing.T) {
	for _, args := range [][]string{
		{ctxflowPkg, semaData + "/cartesian.rq"},
		{"-run", "ctxflow,cartesian,", ctxflowPkg, semaData + "/cartesian.rq"},
	} {
		code, stdout, _ := vet(t, args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		for _, want := range []string{"ctxflow.go:12:9: ctxflow: context.Background()", "cartesian.rq:3:3: cartesian: warning:"} {
			if !strings.Contains(stdout, want) {
				t.Errorf("%v: output lacks %q:\n%s", args, want, stdout)
			}
		}
	}
	// A subset that names neither rule leaves both inputs clean.
	if code, stdout, _ := vet(t, "-run", "lockorder,unboundvar", ctxflowPkg, semaData+"/cartesian.rq"); code != 0 {
		t.Errorf("-run lockorder,unboundvar: exit %d, want 0:\n%s", code, stdout)
	}
}

// TestStdin reads a query from "-".
func TestStdin(t *testing.T) {
	withStdin(t, "SELECT ?x WHERE { ?x <http://p> ?y FILTER(?z > 3) }")
	code, stdout, _ := vet(t, "-")
	if code != 1 || !strings.Contains(stdout, "<stdin>:1:") || !strings.Contains(stdout, "unboundvar: error:") {
		t.Errorf("exit %d, output:\n%s\nwant exit 1 and an unboundvar error on <stdin>", code, stdout)
	}
}

// TestCanonReportsParseFailure is the regression test for -canon dropping
// the parse diagnostic and exiting 0.
func TestCanonReportsParseFailure(t *testing.T) {
	withStdin(t, "SELECT ?x WHERE { ?x ?p ")
	code, stdout, _ := vet(t, "-canon", "-")
	if code != 1 || !strings.Contains(stdout, "<stdin>:") || !strings.Contains(stdout, "parse: error:") {
		t.Errorf("exit %d, output:\n%s\nwant exit 1 and the parse diagnostic", code, stdout)
	}

	withStdin(t, "SELECT ?x WHERE { ?x <http://p> ?y }")
	code, stdout, _ = vet(t, "-canon", "-")
	if code != 0 || !strings.Contains(stdout, "# key: ") {
		t.Errorf("exit %d, output:\n%s\nwant exit 0 and the canonical key", code, stdout)
	}
}

// TestList prints both registries, whose names must be disjoint for -run
// and the directives to mean one rule each.
func TestList(t *testing.T) {
	code, stdout, _ := vet(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	seen := map[string]bool{}
	for _, r := range rules() {
		if seen[r.name] {
			t.Errorf("%s is both an analyzer and a check", r.name)
		}
		seen[r.name] = true
		if !strings.Contains(stdout, r.name+"\n\t") {
			t.Errorf("-list does not describe %s", r.name)
		}
	}
}
