package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Config describes what to load.
type Config struct {
	// Root is the module root (the directory containing go.mod).
	Root string
	// Module is the module path; parsed from Root/go.mod when empty.
	Module string
	// Patterns restricts loading to package-dir patterns relative to
	// Root: "./..." (everything), "./internal/..." (subtree), or a plain
	// directory. Empty means everything.
	Patterns []string
	// Parallelism caps the goroutines parsing and type-checking
	// packages. Zero selects min(GOMAXPROCS, number of packages); 1
	// loads serially. Whatever the value, the returned passes and their
	// contents are identical: packages are type-checked in dependency
	// waves and merged in import-path order.
	Parallelism int
}

// Load parses and best-effort type-checks every package under the module
// root matching the patterns, returning one Pass per package. Directories
// named testdata, vendor, or starting with "." or "_" are skipped, as the
// go tool does. Type-check failures are recorded on the Pass rather than
// aborting, so syntactic rules always run.
//
// Loading is parallel: the matched directories and their module-internal
// import closure are parsed concurrently, then type-checked wave by wave
// of the import DAG — every package in a wave depends only on completed
// packages, so one types.Package is built exactly once and shared by all
// importers (facts stay keyed on object identity). The standard-library
// source importer is not concurrency-safe and is serialized behind a
// mutex; its cache makes that a first-wave cost only.
func Load(cfg Config) ([]*Pass, error) {
	root, err := filepath.Abs(cfg.Root)
	if err != nil {
		return nil, err
	}
	module := cfg.Module
	if module == "" {
		module, err = modulePath(filepath.Join(root, "go.mod"))
		if err != nil {
			return nil, err
		}
	}
	l := newLoader(root, module, cfg.Parallelism)
	dirs, whole, err := l.packageDirs(cfg.Patterns)
	if err != nil {
		return nil, err
	}
	if err := l.parseClosure(dirs); err != nil {
		return nil, err
	}
	l.typeCheckAll()

	matched := map[string]bool{}
	for _, dir := range dirs {
		matched[dir] = true
	}
	var out []*Pass
	for dir, p := range l.passes {
		if p == nil {
			continue
		}
		// Packages pulled in only as imports of the matched set still
		// carry facts (unit types, call-graph nodes); hand them to RunWith as
		// fact-only passes so subtree patterns don't lose cross-package
		// rules.
		p.FactsOnly = !matched[dir]
		p.WholeModule = whole
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

type typedPkg struct {
	pkg *types.Package
	err error
}

type loader struct {
	root    string
	module  string
	workers int
	fset    *token.FileSet

	// std is the standard-library source importer. It is NOT safe for
	// concurrent use; stdMu serializes it across type-check workers.
	std   types.Importer
	stdMu sync.Mutex

	// passes and typed are written only between parallel phases: the
	// parse loop fills passes round by round, and the type-check loop
	// publishes each wave's results before the next wave starts. Workers
	// therefore only ever read them.
	passes map[string]*Pass     // dir → pass (nil: no Go files)
	typed  map[string]*typedPkg // import path → completed result
}

func newLoader(root, module string, parallelism int) *loader {
	return &loader{
		root:    root,
		module:  module,
		workers: parallelism,
		fset:    token.NewFileSet(),
		std:     importer.ForCompiler(token.NewFileSet(), "source", nil),
		passes:  map[string]*Pass{},
		typed:   map[string]*typedPkg{},
	}
}

// forEach runs fn(0..n-1) across min(workers, n) goroutines, or inline
// when that is 1. token.FileSet is internally synchronized, so parsing
// and type-checking may share l.fset across workers.
func (l *loader) forEach(n int, fn func(i int)) {
	workers := l.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// packageDirs walks the module tree and returns directories holding Go
// files that match the patterns, and whether they are all of the module's
// package directories.
func (l *loader) packageDirs(patterns []string) ([]string, bool, error) {
	var prefixes []string // rel-dir prefixes; nil means everything
	all := len(patterns) == 0
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == "" {
			all = true
			continue
		}
		prefixes = append(prefixes, strings.TrimSuffix(pat, "/..."))
	}
	var dirs []string
	whole := true
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				if all || matchesAny(rel, prefixes) {
					dirs = append(dirs, path)
				} else {
					whole = false
				}
				break
			}
		}
		return nil
	})
	return dirs, whole, err
}

func matchesAny(rel string, prefixes []string) bool {
	rel = filepath.ToSlash(rel)
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// importPath maps a directory under the root to its import path.
func (l *loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module-internal import path back to a directory.
func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// parseClosure parses the given directories and, round by round, every
// module-internal package they import, in parallel. Parse errors in the
// requested directories abort; an unreadable directory reached only
// through an import is recorded as that import path's resolution error
// (matching the serial loader, where it surfaced as a type-check
// diagnostic of the importer).
func (l *loader) parseClosure(dirs []string) error {
	requested := map[string]bool{}
	for _, d := range dirs {
		requested[d] = true
	}
	pending := append([]string(nil), dirs...)
	seen := map[string]bool{}
	for len(pending) > 0 {
		var batch []string
		for _, d := range pending {
			if !seen[d] {
				seen[d] = true
				batch = append(batch, d)
			}
		}
		pending = nil
		if len(batch) == 0 {
			break
		}
		sort.Strings(batch)
		results := make([]*Pass, len(batch))
		errs := make([]error, len(batch))
		l.forEach(len(batch), func(i int) {
			results[i], errs[i] = l.parseDir(batch[i])
		})
		for i, err := range errs {
			if err == nil {
				continue
			}
			if requested[batch[i]] {
				return err
			}
			l.typed[l.importPath(batch[i])] = &typedPkg{err: err}
		}
		for i, p := range results {
			l.passes[batch[i]] = p
			if p == nil || errs[i] != nil {
				continue
			}
			for _, imp := range l.moduleImports(p) {
				if d := l.dirFor(imp); !seen[d] {
					pending = append(pending, d)
				}
			}
		}
	}
	return nil
}

// parseDir parses one package directory into a Pass (nil when it holds no
// Go files).
func (l *loader) parseDir(dir string) (*Pass, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Pass{Fset: l.fset, Path: l.importPath(dir)}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		p.Files = append(p.Files, &SourceFile{
			Name: full,
			AST:  f,
			Test: strings.HasSuffix(name, "_test.go"),
		})
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	sort.Slice(p.Files, func(i, j int) bool { return p.Files[i].Name < p.Files[j].Name })
	return p, nil
}

// moduleImports returns the module-internal import paths of a package's
// non-test files, deduplicated and sorted.
func (l *loader) moduleImports(p *Pass) []string {
	set := map[string]bool{}
	for _, sf := range p.Files {
		if sf.Test {
			continue
		}
		for _, imp := range sf.AST.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == l.module || strings.HasPrefix(path, l.module+"/") {
				set[path] = true
			}
		}
	}
	var out []string
	for path := range set {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// typeCheckAll type-checks every parsed package in dependency waves: a
// package joins a wave once all its module-internal imports are complete,
// so each wave's packages are independent and check concurrently while
// the importer reads only finished results. Packages left over when no
// wave can form sit on an import cycle (or import a broken package) and
// get a diagnostic instead of type information.
func (l *loader) typeCheckAll() {
	type node struct {
		pass *Pass
		deps []string
	}
	byPath := map[string]*Pass{}
	var order []string
	for _, p := range l.passes {
		if p == nil {
			continue
		}
		byPath[p.Path] = p
		order = append(order, p.Path)
	}
	sort.Strings(order)
	nodes := map[string]*node{}
	for _, path := range order {
		p := byPath[path]
		var deps []string
		for _, imp := range l.moduleImports(p) {
			if imp != path {
				deps = append(deps, imp)
			}
		}
		nodes[path] = &node{pass: p, deps: deps}
	}
	remaining := len(nodes)
	done := func(path string) bool { _, ok := l.typed[path]; return ok }
	for remaining > 0 {
		var wave []*node
		for _, path := range order {
			n := nodes[path]
			if n == nil || done(path) {
				continue
			}
			ready := true
			for _, dep := range n.deps {
				// A dep outside the parsed set resolves to an importer
				// error during the check; only parsed-but-unfinished deps
				// hold a package back.
				if _, parsed := nodes[dep]; parsed && !done(dep) {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, n)
			}
		}
		if len(wave) == 0 {
			// The remaining packages form import cycles.
			for _, path := range order {
				n := nodes[path]
				if n == nil || done(path) {
					continue
				}
				err := fmt.Errorf("analysis: import cycle through %s", path)
				n.pass.TypeErrors = append(n.pass.TypeErrors, err)
				l.typed[path] = &typedPkg{err: err}
				remaining--
			}
			return
		}
		l.forEach(len(wave), func(i int) {
			l.typeCheck(wave[i].pass)
		})
		for _, n := range wave {
			t := &typedPkg{pkg: n.pass.Pkg}
			if n.pass.Pkg == nil {
				t.err = fmt.Errorf("analysis: cannot type-check %s", n.pass.Path)
			}
			l.typed[n.pass.Path] = t
			remaining--
		}
	}
}

// typeCheck populates p.Info/p.Pkg from the package's non-test files.
// Errors are collected, not fatal: rules fall back to syntax when type
// information is missing.
func (l *loader) typeCheck(p *Pass) {
	var files []*ast.File
	for _, sf := range p.Files {
		if !sf.Test {
			files = append(files, sf.AST)
		}
	}
	if len(files) == 0 {
		return
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: (*moduleImporter)(l),
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	pkg, err := conf.Check(p.Path, l.fset, files, info)
	if err != nil && len(p.TypeErrors) == 0 {
		p.TypeErrors = append(p.TypeErrors, err)
	}
	p.Info = info
	p.Pkg = pkg
}

// moduleImporter resolves module-internal imports from the completed
// waves and delegates everything else (the standard library) to the
// stdlib source importer, serialized behind stdMu.
type moduleImporter loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*loader)(m)
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		if t, ok := l.typed[path]; ok {
			return t.pkg, t.err
		}
		return nil, fmt.Errorf("analysis: cannot resolve %s", path)
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}
