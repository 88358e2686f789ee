package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// Run is RunWith without options.
func Run(passes []*Pass, rules []Rule) []Finding {
	return RunWith(passes, rules, RunOptions{})
}

// LoadDir loads a single directory as a package with an explicit import
// path, without consulting go.mod. The golden-file tests use it to place
// fixture packages at rule-relevant fake paths (e.g. a testdata fixture
// pretending to live under geoprocmap/internal/mpi).
func LoadDir(dir, fakePath string) (*Pass, error) {
	l := newLoader(dir, fakePath, 1)
	p, err := l.parseDir(dir)
	if err != nil || p == nil {
		return p, err
	}
	l.passes[dir] = p
	l.typeCheckAll()
	return p, nil
}

// TestRuleGolden checks every rule against its fixture package: each line
// carrying a "// want <rule>" comment must produce exactly that finding,
// and no line without one may produce any. The fixtures also contain
// justified //geolint:ignore directives, so suppression is exercised on
// every rule.
func TestRuleGolden(t *testing.T) {
	cases := []struct {
		name string
		path string // fake import path placing the fixture in rule scope
		rule Rule
	}{
		{"globalrand", "geoprocmap/internal/fixture", &GlobalRandRule{}},
		{"libpanic", "geoprocmap/internal/fixture", &LibPanicRule{}},
		{"floatcmp", "geoprocmap/internal/core/fixture", &FloatCmpRule{}},
		{"ctxgoroutine", "geoprocmap/internal/mpi/fixture", &CtxGoroutineRule{}},
		{"sleepretry", "geoprocmap/internal/fixture", &SleepRetryRule{}},
		{"unitcheck", "geoprocmap/internal/core/fixture", &UnitCheckRule{}},
		{"mapiter", "geoprocmap/internal/fixture", &MapIterRule{}},
		{"errcheck", "geoprocmap/internal/fixture", &ErrCheckRule{}},
		{"errcheckcmd", "geoprocmap/cmd/fixture", &ErrCheckRule{}},
		{"detcheck", "geoprocmap/internal/fixture", &DetCheckRule{}},
		{"locksafe", "geoprocmap/internal/fixture", &LockSafeRule{}},
		{"allocsafe", "geoprocmap/internal/fixture", &AllocSafeRule{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.name)
			pass, err := LoadDir(dir, tc.path)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			if len(pass.TypeErrors) > 0 {
				t.Fatalf("fixture %s does not type-check: %v", dir, pass.TypeErrors[0])
			}
			got := map[string]bool{}
			for _, f := range Run([]*Pass{pass}, []Rule{tc.rule}) {
				got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)] = true
			}
			want := parseWants(t, pass)
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
			if len(want) == 0 {
				t.Fatalf("fixture %s declares no expected findings; a golden test needs at least one true positive", dir)
			}
		})
	}
}

var wantRe = regexp.MustCompile(`//\s*want\s+([a-z]+)`)

// parseWants extracts "file:line:rule" expectations from // want comments.
func parseWants(t *testing.T, p *Pass) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	for _, sf := range p.Files {
		for _, cg := range sf.AST.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				want[fmt.Sprintf("%s:%d:%s", filepath.Base(pos.Filename), pos.Line, m[1])] = true
			}
		}
	}
	return want
}

// TestIgnoreDirectives covers the directive grammar: well-formed
// directives suppress their rule on the same and the following line;
// malformed ones (missing rule, unknown rule, missing justification)
// become findings under the pseudo-rule "geolint" and suppress nothing.
func TestIgnoreDirectives(t *testing.T) {
	src := `package fixture

import "math/rand"

func a() float64 {
	return rand.Float64() //geolint:ignore globalrand same-line suppression works
}

func b() float64 {
	//geolint:ignore globalrand next-line suppression works
	return rand.Float64()
}

func c() float64 {
	return rand.Float64() //geolint:ignore globalrand
}

func d() float64 {
	return rand.Float64() //geolint:ignore nosuchrule reason text
}

func e() float64 {
	return rand.Float64() //geolint:ignore
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{
		Fset:  fset,
		Path:  "geoprocmap/internal/fixture",
		Files: []*SourceFile{{Name: "fixture.go", AST: f}},
	}
	findings := Run([]*Pass{pass}, []Rule{&GlobalRandRule{}})
	byRuleLine := map[string]bool{}
	for _, fd := range findings {
		byRuleLine[fmt.Sprintf("%s:%d", fd.Rule, fd.Pos.Line)] = true
	}
	wants := []string{
		"geolint:15",    // missing justification
		"globalrand:15", // ...so the finding is not suppressed
		"geolint:19",    // unknown rule
		"globalrand:19",
		"geolint:23", // missing rule and justification
		"globalrand:23",
	}
	for _, w := range wants {
		if !byRuleLine[w] {
			t.Errorf("missing finding %s; got %v", w, keys(byRuleLine))
		}
	}
	for _, suppressed := range []string{"globalrand:6", "globalrand:11"} {
		if byRuleLine[suppressed] {
			t.Errorf("finding %s should have been suppressed", suppressed)
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("got %d findings, want %d: %v", len(findings), len(wants), keys(byRuleLine))
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSelfLint runs the full rule set over this repository and requires a
// clean tree. This embeds the geolint gate into the ordinary test suite:
// a change that introduces a global rand call, a library panic, a float
// equality in cost code, or an unjoinable simulator goroutine fails
// go test ./... even before CI runs cmd/geolint.
func TestSelfLint(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s", root)
	}
	passes, err := Load(Config{Root: root})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(passes) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing the tree", len(passes))
	}
	for _, p := range passes {
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: type-check issues reduce typed-rule coverage (first: %v)", p.Path, p.TypeErrors[0])
		}
	}
	for _, f := range Run(passes, DefaultRules()) {
		t.Errorf("%s", f)
	}
}

// TestModulePath covers go.mod parsing.
func TestModulePath(t *testing.T) {
	dir := t.TempDir()
	gomod := filepath.Join(dir, "go.mod")
	if err := os.WriteFile(gomod, []byte("// a comment\nmodule example.com/demo\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := modulePath(gomod)
	if err != nil {
		t.Fatal(err)
	}
	if got != "example.com/demo" {
		t.Errorf("modulePath = %q, want example.com/demo", got)
	}
	if _, err := modulePath(filepath.Join(dir, "missing")); err == nil {
		t.Error("modulePath on a missing file: want error")
	}
}

// TestLoadPatterns checks pattern scoping against the real module.
func TestLoadPatterns(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s", root)
	}
	passes, err := Load(Config{Root: root, Patterns: []string{"./internal/mat"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) != 1 || passes[0].Path != "geoprocmap/internal/mat" {
		var paths []string
		for _, p := range passes {
			paths = append(paths, p.Path)
		}
		t.Errorf("Load(./internal/mat) = %v, want exactly geoprocmap/internal/mat", paths)
	}
}
