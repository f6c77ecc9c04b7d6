package diag

import (
	"reflect"
	"strings"
	"testing"
)

func identity(s string) string { return s }

// TestLookup pins registry order in the result, the first unknown name in
// argument order (map iteration once chose between two at random), and
// empty entries from a trailing comma being ignored.
func TestLookup(t *testing.T) {
	reg := []string{"unboundvar", "cartesian", "filtersat"}
	got, err := Lookup(reg, identity, strings.Split("cartesian,unboundvar,", ","))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"unboundvar", "cartesian"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Lookup = %v, want %v", got, want)
	}
	for i := 0; i < 20; i++ {
		_, err := Lookup(reg, identity, strings.Split("cartesian,nosuch,bogus,", ","))
		if err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
			t.Fatalf("Lookup error = %v, want one naming \"nosuch\"", err)
		}
	}
	if got, err := Lookup(reg, identity, []string{"", " "}); err != nil || len(got) != 0 {
		t.Errorf("Lookup of empty entries = %v, %v; want nothing and no error", got, err)
	}
}

// TestDirectives runs the grammar and the rot rule over one directive of
// each shape, with findings that cover by name alone.
func TestDirectives(t *testing.T) {
	known := map[string]bool{"a": true, "b": true, "off": true}
	running := map[string]bool{"a": true, "b": true}
	dirs := []*Directive[int]{
		Parse(1, " a -- why", "check", known, running),
		Parse(2, " a", "check", known, running),
		Parse(3, " nosuch -- why", "check", known, running),
		Parse(4, " b -- stale", "check", known, running),
		Parse(5, " off -- not in this run", "check", known, running),
		Parse(6, " , -- why", "check", known, running),
		Parse(7, " a -- ", "check", known, running),
		Malformed(8, "bad prefix"),
	}
	covers := func(d *Directive[int], rule string) bool { return d.Names(rule) }
	report := func(pos int, msg string) string { return strings.Repeat("@", pos) + msg }
	got := Apply([]string{"a", "c"}, dirs, covers, report)
	want := []string{
		"c",
		"@@suppression without justification: append \" -- <why this is safe>\"",
		"@@@unknown check \"nosuch\" in suppression",
		"@@@@unused suppression directive: nothing to suppress here; delete it",
		"@@@@@@suppression names no check",
		"@@@@@@@suppression without justification: append \" -- <why this is safe>\"",
		"@@@@@@@@bad prefix",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Apply =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
