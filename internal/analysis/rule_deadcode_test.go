package analysis

import (
	"fmt"
	"path/filepath"
	"testing"
)

// loadDeadCodeFixture loads the testdata/deadcode module, restricted to
// patterns when any are given.
func loadDeadCodeFixture(t *testing.T, patterns ...string) []*Pass {
	t.Helper()
	passes, err := Load(Config{Root: "testdata/deadcode", Module: "example.com/dc", Patterns: patterns})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range passes {
		for _, e := range p.TypeErrors {
			t.Fatalf("%s: unexpected type error: %v", p.Path, e)
		}
	}
	return passes
}

// TestDeadCodeGolden runs deadcode over the whole fixture module: every
// root kind (main, init, a package-level reference, a stdlib-interface
// method) and edge kind (interface dispatch, a function value resolved by
// signature, generic calls) keeps its target alive, and exactly the
// "// want deadcode" lines are reported. The ignored function's directive
// is used, so -staleignores reports nothing more.
func TestDeadCodeGolden(t *testing.T) {
	passes := loadDeadCodeFixture(t)
	got := map[string]bool{}
	for _, f := range RunWith(passes, []Rule{&DeadCodeRule{}}, RunOptions{StaleIgnores: true}) {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)] = true
	}
	want := map[string]bool{}
	for _, p := range passes {
		for w := range parseWants(t, p) {
			want[w] = true
		}
	}
	if len(want) != 2 {
		t.Fatalf("fixture declares %d expected findings, want 2 (one function, one method)", len(want))
	}
	for w := range want {
		if !got[w] {
			t.Errorf("missing expected finding %s", w)
		}
	}
	for g := range got {
		if !want[g] {
			t.Errorf("unexpected finding %s", g)
		}
	}
}

// TestDeadCodeScopedLoad checks that a load of one subdirectory neither
// reports deadcode (the binary calling into it is not loaded) nor calls
// deadcode's ignore directives stale.
func TestDeadCodeScopedLoad(t *testing.T) {
	passes := loadDeadCodeFixture(t, "./lib")
	if len(passes) != 1 || passes[0].WholeModule {
		t.Fatalf("scoped load: %d passes, WholeModule=%v; want 1 partial pass", len(passes), len(passes) > 0 && passes[0].WholeModule)
	}
	known := map[string]bool{}
	for _, r := range DefaultRules() {
		known[r.ID()] = true
	}
	for _, f := range RunWith(passes, []Rule{&DeadCodeRule{}}, RunOptions{StaleIgnores: true, KnownRules: known}) {
		t.Errorf("scoped load reported %s", f)
	}
}
