package geoprocmap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileFuzzesEveryTarget requires the Makefile's fuzz target, which
// CI runs, to name every native fuzz target of the module with its own
// package, and nothing else: a Fuzz function missing from the list would
// never be fuzzed beyond its seed corpus, and a listed name with no
// function would fail only when the target runs. Directories the go tool
// ignores (names starting with "." or "_", and testdata) are skipped, so
// the separate _perfbench module is not counted.
func TestMakefileFuzzesEveryTarget(t *testing.T) {
	var defined []string // "./pkg FuzzName", one per func Fuzz* in a _test.go file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				defined = append(defined, "./"+filepath.ToSlash(filepath.Dir(path))+" "+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := makeFuzzTargets(string(makefile))
	if len(listed) == 0 {
		t.Fatal("the Makefile's fuzz target runs no fuzz target")
	}
	for _, d := range defined {
		if !slices.Contains(listed, d) {
			t.Errorf("fuzz target %s is missing from the Makefile's fuzz target", d)
		}
	}
	for _, l := range listed {
		if !slices.Contains(defined, l) {
			t.Errorf("the Makefile's fuzz target runs %s, which no _test.go file defines", l)
		}
	}
}

// fuzzCall matches one `go test -fuzz '^Name$$' ... ./pkg` line of the
// Makefile.
var fuzzCall = regexp.MustCompile(`-fuzz '\^(\w+)\$\$' .*(\./\S+)\s*$`)

// makeFuzzTargets returns "./pkg FuzzName" for each fuzz call in the
// recipe of the Makefile's fuzz target.
func makeFuzzTargets(makefile string) []string {
	var out []string
	inFuzz := false
	for _, line := range strings.Split(makefile, "\n") {
		switch {
		case strings.HasPrefix(line, "fuzz:"):
			inFuzz = true
		case !strings.HasPrefix(line, "\t"):
			inFuzz = false
		case inFuzz:
			if m := fuzzCall.FindStringSubmatch(line); m != nil {
				out = append(out, m[2]+" "+m[1])
			}
		}
	}
	return out
}
