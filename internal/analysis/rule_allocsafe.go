package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Allocation-discipline annotations. On a function declaration's doc
// comment:
//
//	//geolint:allocfree
//	func (f *Fill) Run(orderedGroups [][]int) []int
//
// declares an alloc-free root: the function must not transitively reach
// an allocation site over the module call graph — the static contract
// behind the AllocsPerRun==0 benchmarks. And
//
//	//geolint:allocsite <one-line justification>
//
// on a function doc marks a justified boundary — taint propagation stops
// there (the whole function is audited as deliberately allocating, e.g. a
// cold cache-rebuild path). The same directive on or above an individual
// statement excuses just that line's site:
//
//	f.members[s] = append(f.members[s], v) //geolint:allocsite amortized high-water growth
//
// Both forms require a justification; a stale line-level excuse is
// reported so audited crossings cannot rot.
var allocSpec = taintSpec{
	rule:         "allocsafe",
	rootMarker:   "//geolint:allocfree",
	excuseMarker: "//geolint:allocsite",
	staleMsg:     "stale allocsite excuse: no allocation site on this or the next line; delete it",
	reachFmt:     "alloc-free function %s reaches an allocation site: %s at %s:%d",
}

// AllocSafeRule is the interprocedural allocation-discipline rule. The
// fact phase catalogs heap-allocation sites per function:
//
//   - make / new builtin calls
//   - composite literals that escape heuristically: returned, address-
//     taken, stored through a pointer/field/index, sent on a channel, or
//     held in a local that later escapes
//   - append growth on slices not provably pre-sized: appending to a
//     self-reslice (x[:0]) or to a slice made/reset in the same function
//     is amortized-free and not flagged
//   - string concatenation and fmt formatting (Sprintf and friends box
//     their arguments and build fresh strings)
//   - interface boxing of concrete non-pointer values at call, return,
//     and assignment boundaries
//   - variadic calls, which allocate the argument backing slice
//   - go statements and escaping capturing closures (a closure passed as
//     a plain call argument is stack-allocatable and not flagged; a
//     non-capturing literal is a static function and never flagged)
//
// The check phase walks the call graph breadth-first from every
// //geolint:allocfree root and reports the shortest call chain to each
// reachable site, exactly as detcheck does for nondeterminism (taint.go
// holds the shared machinery). The catalog is a heuristic for the
// compiler's escape analysis, deliberately biased toward false positives:
// a site the optimizer provably elides is excused with a justified
// //geolint:allocsite, and the BENCH_alloc benchmarks are the dynamic
// ground truth the static rule approximates.
type AllocSafeRule struct{}

func (*AllocSafeRule) ID() string { return "allocsafe" }

func (*AllocSafeRule) Doc() string {
	return "flag //geolint:allocfree functions that transitively reach an allocation site (make/new, escaping literals, append growth, boxing, variadic, fmt, closures) over the module call graph"
}

// ExportFacts collects annotations and per-function allocation-site facts
// for one pass.
func (r *AllocSafeRule) ExportFacts(p *Pass, fs *FactSet) {
	fs.alloc.exportPass(p, scanAllocSites)
}

// Check emits this pass's malformed annotations, walks the call graph
// from every root declared here, and reports stale line-level excuses.
func (r *AllocSafeRule) Check(p *Pass) []Finding {
	fs := p.Facts
	if fs == nil || p.Info == nil {
		return nil
	}
	return fs.alloc.check(p, fs.CallGraph())
}

// scanAllocSites catalogs the allocation sites in one function body,
// including bodies of nested function literals (the call graph attributes
// those to the enclosing declaration).
func scanAllocSites(p *Pass, fd *ast.FuncDecl) []TaintSource {
	s := &allocScanner{
		p:        p,
		fd:       fd,
		presized: map[string]bool{},
		escLocal: map[types.Object]string{},
	}
	s.prescan()
	s.walk()
	return dedupeSites(s.out)
}

// allocScanner carries one function's scan state.
type allocScanner struct {
	p  *Pass
	fd *ast.FuncDecl
	// presized keys slices that are provably reset or sized in this
	// function (assigned from make or a reslice), so append on them is
	// amortized high-water growth, not steady-state allocation.
	presized map[string]bool
	// escLocal maps locals initialized from a slice literal or a
	// capturing closure to a description; a later escaping use of the
	// local (return, store, send) flags the site.
	escLocal map[types.Object]string
	stack    []ast.Node
	out      []TaintSource
}

func (s *allocScanner) add(pos token.Pos, desc string) {
	s.out = append(s.out, TaintSource{Pos: s.p.position(pos), Desc: desc})
}

// prescan records pre-sized slices and escape-tracked locals before the
// site walk, so the analysis is insensitive to statement order.
func (s *allocScanner) prescan() {
	record := func(lhs, rhs ast.Expr, define bool) {
		switch r := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok {
				if b, ok := s.p.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						if k := s.key(lhs); k != "" {
							s.presized[k] = true
						}
					case "append":
						// x = append(x[:0], ...) resets x: later appends
						// to x reuse the same high-water backing array.
						if len(r.Args) > 0 {
							if se, ok := ast.Unparen(r.Args[0]).(*ast.SliceExpr); ok {
								if k := s.key(lhs); k != "" && k == s.key(se.X) {
									s.presized[k] = true
								}
							}
						}
					}
				}
			}
		case *ast.SliceExpr:
			if k := s.key(lhs); k != "" {
				s.presized[k] = true
			}
		case *ast.CompositeLit:
			if define && isSliceLit(s.p, r) {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := s.p.Info.Defs[id]; obj != nil {
						s.escLocal[obj] = "composite literal"
					}
				}
			}
		case *ast.FuncLit:
			if define && capturesOuter(s.p, s.fd, r) {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := s.p.Info.Defs[id]; obj != nil {
						s.escLocal[obj] = "capturing closure"
					}
				}
			}
		}
	}
	ast.Inspect(s.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i], n.Tok == token.DEFINE)
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i], true)
				}
			}
		}
		return true
	})
}

// key canonicalizes a sliceable expression for the presized map: idents
// by object identity, selectors by base+field, index expressions with a
// wildcard index (a reset of h.members[j] covers append to h.members[s]).
func (s *allocScanner) key(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := s.p.Info.ObjectOf(e); obj != nil {
			return fmt.Sprintf("%p", obj)
		}
	case *ast.SelectorExpr:
		if base := s.key(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		if base := s.key(e.X); base != "" {
			return base + "[*]"
		}
	}
	return ""
}

// walk is the main site sweep. A stack of open nodes supplies the parent
// context composite literals and function literals escape through.
func (s *allocScanner) walk() {
	ast.Inspect(s.fd.Body, func(n ast.Node) bool {
		if n == nil {
			s.stack = s.stack[:len(s.stack)-1]
			return true
		}
		s.stack = append(s.stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			s.call(n)
		case *ast.AssignStmt:
			s.assign(n)
		case *ast.ValueSpec:
			s.valueSpec(n)
		case *ast.ReturnStmt:
			s.ret(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.add(lit.Pos(), "address-taken composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(s.p.Info.TypeOf(n)) && !isConstExpr(s.p, n) {
				s.add(n.OpPos, "string concatenation allocates")
			}
		case *ast.SendStmt:
			s.send(n)
		case *ast.GoStmt:
			s.add(n.Go, "go statement allocates a new goroutine")
		case *ast.FuncLit:
			s.funcLit(n)
		case *ast.CompositeLit:
			if isMapLit(s.p, n) {
				s.add(n.Pos(), "map literal allocates")
			}
		}
		return true
	})
}

// call classifies one call expression: conversions (interface boxing),
// builtins (make/new/append), fmt formatting, variadic backing slices,
// and per-argument boxing.
func (s *allocScanner) call(n *ast.CallExpr) {
	p := s.p
	fun := ast.Unparen(n.Fun)
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		if len(n.Args) == 1 && boxesInto(p.Info.TypeOf(n.Args[0]), tv.Type) {
			s.add(n.Lparen, "conversion boxes a concrete value into an interface")
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				s.add(n.Lparen, "make allocates")
			case "new":
				s.add(n.Lparen, "new allocates")
			case "append":
				s.appendCall(n)
			}
			return
		}
	}
	if name := fmtCallName(p, fun); name != "" {
		s.add(n.Lparen, "fmt."+name+" allocates (formatting boxes its arguments)")
		return
	}
	sig := callSignature(p, fun)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	if sig.Variadic() && n.Ellipsis == token.NoPos && len(n.Args) >= np {
		s.add(n.Lparen, "variadic call allocates its argument slice")
	}
	for i, arg := range n.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if n.Ellipsis != token.NoPos {
				if i == np-1 {
					pt = sig.Params().At(np - 1).Type()
				}
			} else if sl, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if boxesInto(p.Info.TypeOf(arg), pt) {
			s.add(arg.Pos(), "argument boxes a concrete value into an interface parameter")
		}
	}
}

// appendCall flags append growth unless the appendee is provably
// pre-sized: a self-reslice first argument (x[:0]) or a slice made or
// reset elsewhere in this function.
func (s *allocScanner) appendCall(n *ast.CallExpr) {
	if len(n.Args) == 0 {
		return
	}
	first := ast.Unparen(n.Args[0])
	if _, ok := first.(*ast.SliceExpr); ok {
		return
	}
	if k := s.key(first); k != "" && s.presized[k] {
		return
	}
	s.add(n.Lparen, "append may grow its backing array")
}

func (s *allocScanner) assign(n *ast.AssignStmt) {
	p := s.p
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(p.Info.TypeOf(n.Lhs[0])) {
		s.add(n.TokPos, "string concatenation allocates")
		return
	}
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i := range n.Lhs {
		lhs, rhs := n.Lhs[i], n.Rhs[i]
		if n.Tok == token.ASSIGN && boxesInto(p.Info.TypeOf(rhs), p.Info.TypeOf(lhs)) {
			s.add(rhs.Pos(), "assignment boxes a concrete value into an interface")
		}
		switch ast.Unparen(lhs).(type) {
		case *ast.StarExpr, *ast.SelectorExpr, *ast.IndexExpr:
			switch r := ast.Unparen(rhs).(type) {
			case *ast.CompositeLit:
				if isSliceLit(p, r) {
					s.add(r.Pos(), "composite literal stored outside the function escapes")
				}
			case *ast.Ident:
				if obj := p.Info.Uses[r]; obj != nil {
					if d, ok := s.escLocal[obj]; ok {
						s.add(r.Pos(), d+" escapes through a store")
					}
				}
			}
		}
	}
}

func (s *allocScanner) valueSpec(n *ast.ValueSpec) {
	if n.Type == nil {
		return
	}
	dst := s.p.Info.TypeOf(n.Type)
	for _, v := range n.Values {
		if boxesInto(s.p.Info.TypeOf(v), dst) {
			s.add(v.Pos(), "assignment boxes a concrete value into an interface")
		}
	}
}

func (s *allocScanner) ret(n *ast.ReturnStmt) {
	p := s.p
	sig := s.enclosingSig()
	for i, res := range n.Results {
		switch e := ast.Unparen(res).(type) {
		case *ast.CompositeLit:
			if isSliceLit(p, e) {
				s.add(e.Pos(), "composite literal escapes via return")
			}
		case *ast.Ident:
			if obj := p.Info.Uses[e]; obj != nil {
				if d, ok := s.escLocal[obj]; ok {
					s.add(e.Pos(), d+" escapes via return")
				}
			}
		}
		if sig != nil && i < sig.Results().Len() {
			if boxesInto(p.Info.TypeOf(res), sig.Results().At(i).Type()) {
				s.add(res.Pos(), "return boxes a concrete value into an interface result")
			}
		}
	}
}

func (s *allocScanner) send(n *ast.SendStmt) {
	switch v := ast.Unparen(n.Value).(type) {
	case *ast.CompositeLit:
		if isSliceLit(s.p, v) {
			s.add(v.Pos(), "composite literal escapes via channel send")
		}
	case *ast.Ident:
		if obj := s.p.Info.Uses[v]; obj != nil {
			if d, ok := s.escLocal[obj]; ok {
				s.add(v.Pos(), d+" escapes via channel send")
			}
		}
	}
}

// funcLit flags a capturing closure whose immediate context makes it
// escape. A literal passed as a plain call argument is stack-allocatable
// (the callback-iteration idiom) and a non-capturing literal compiles to
// a static function; neither is a site. A literal launched with go is
// covered by the GoStmt site.
func (s *allocScanner) funcLit(n *ast.FuncLit) {
	if !capturesOuter(s.p, s.fd, n) {
		return
	}
	j := len(s.stack) - 2
	for j >= 0 {
		if _, ok := s.stack[j].(*ast.ParenExpr); ok {
			j--
			continue
		}
		break
	}
	if j < 0 {
		return
	}
	switch ctx := s.stack[j].(type) {
	case *ast.CallExpr:
		if ast.Unparen(ctx.Fun) == ast.Expr(n) && j > 0 {
			if _, ok := s.stack[j-1].(*ast.DeferStmt); ok {
				s.add(n.Pos(), "deferred capturing closure allocates")
			}
		}
	case *ast.ReturnStmt:
		s.add(n.Pos(), "capturing closure escapes via return")
	case *ast.SendStmt:
		s.add(n.Pos(), "capturing closure escapes via channel send")
	case *ast.AssignStmt:
		for i, rhs := range ctx.Rhs {
			if ast.Unparen(rhs) != ast.Expr(n) || i >= len(ctx.Lhs) {
				continue
			}
			switch ast.Unparen(ctx.Lhs[i]).(type) {
			case *ast.StarExpr, *ast.SelectorExpr, *ast.IndexExpr:
				s.add(n.Pos(), "capturing closure stored outside the function escapes")
			}
		}
	case *ast.CompositeLit:
		s.add(n.Pos(), "capturing closure stored in a composite literal escapes")
	}
}

// enclosingSig returns the signature governing a return statement: the
// nearest open function literal's, or the declaration's.
func (s *allocScanner) enclosingSig() *types.Signature {
	for j := len(s.stack) - 2; j >= 0; j-- {
		if lit, ok := s.stack[j].(*ast.FuncLit); ok {
			if tv, ok := s.p.Info.Types[lit]; ok && tv.Type != nil {
				if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
					return sig
				}
			}
			return nil
		}
	}
	if fn, ok := s.p.Info.Defs[s.fd.Name].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// capturesOuter reports whether lit references a variable declared in the
// enclosing function outside the literal itself (receiver and parameters
// included) — the condition under which the closure needs a heap object.
func capturesOuter(p *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			captures = true
			return false
		}
		return true
	})
	return captures
}

// callSignature resolves the signature a call expression invokes (method
// signatures come back receiver-stripped, matching the argument list).
func callSignature(p *Pass, fun ast.Expr) *types.Signature {
	tv, ok := p.Info.Types[fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// fmtCallName returns the function name when fun resolves into package
// fmt — every fmt call boxes its variadic arguments and most build fresh
// strings, so the whole package is a site.
func fmtCallName(p *Pass, fun ast.Expr) string {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return ""
	}
	return fn.Name()
}

// boxesInto reports whether assigning a value of type src to a location
// of type dst boxes a concrete value into an interface. Pointer-shaped
// sources (pointers, maps, channels, funcs) fit in the interface word and
// do not allocate; everything else concrete is assumed to.
func boxesInto(src, dst types.Type) bool {
	if src == nil || dst == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	if types.IsInterface(src) {
		return false
	}
	if _, ok := src.(*types.Tuple); ok {
		return false
	}
	if b, ok := src.Underlying().(*types.Basic); ok {
		switch b.Kind() {
		case types.UntypedNil, types.UnsafePointer, types.Invalid:
			return false
		}
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether the type checker folded e to a constant
// (constant string concatenation happens at compile time).
func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

func isSliceLit(p *Pass, lit *ast.CompositeLit) bool {
	t := p.Info.TypeOf(lit)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func isMapLit(p *Pass, lit *ast.CompositeLit) bool {
	t := p.Info.TypeOf(lit)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// dedupeSites collapses sites that share a position line and description
// (nested string concatenation reports once per line, not per operator).
func dedupeSites(sites []TaintSource) []TaintSource {
	seen := map[string]bool{}
	out := sites[:0]
	for _, s := range sites {
		k := fmt.Sprintf("%s:%d:%s", s.Pos.Filename, s.Pos.Line, s.Desc)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	return out
}
