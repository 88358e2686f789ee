package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the module-wide static call graph the interprocedural
// rules (detcheck, locksafe) walk. The engine adds every pass — including
// fact-only passes pulled in as imports — before any rule exports facts,
// so a root annotated in internal/core sees callees declared anywhere in
// the module.
//
// Nodes are declared functions and methods (*types.Func identity; the
// loader type-checks each package exactly once, so an object seen from an
// importing package is the same pointer as in its declaring package).
// Function literals are not nodes: their bodies are attributed to the
// enclosing declaration, which over-approximates in the safe direction
// for taint (the literal is assumed to run).
//
// Edge resolution:
//
//	static   the callee is a declared function or a method of a concrete
//	         receiver type, resolved through types.Info
//	dynamic  a call through a function value; resolved conservatively to
//	         every module function whose address is taken somewhere and
//	         whose signature is identical
//	iface    an interface method call; resolved to the corresponding
//	         method of every module type implementing the interface
//	go       the callee runs on a new goroutine
//	defer    the callee runs at function exit
//	ref      the callee's value is taken without being called (it may be
//	         invoked by code outside the graph, e.g. the standard library)

// CallMode classifies one call-graph edge.
type CallMode int

const (
	CallStatic CallMode = iota
	CallDynamic
	CallIface
	CallGo
	CallDefer
	CallRef
)

func (m CallMode) String() string {
	switch m {
	case CallStatic:
		return "static"
	case CallDynamic:
		return "dynamic"
	case CallIface:
		return "iface"
	case CallGo:
		return "go"
	case CallDefer:
		return "defer"
	case CallRef:
		return "ref"
	}
	return "?"
}

// CGEdge is one resolved call edge.
type CGEdge struct {
	Callee *types.Func
	Mode   CallMode
	Pos    token.Position
}

// CGNode is one declared function with its outgoing edges, in
// deterministic order (source order for static edges, then resolved
// dynamic/interface edges sorted by callee name).
type CGNode struct {
	Fn    *types.Func
	Pos   token.Position
	Edges []CGEdge
}

// CallGraph is the module-wide graph. Only declared module functions are
// nodes; edges may additionally point at functions outside the module
// (standard library), which simply have no node to continue from.
type CallGraph struct {
	nodes  map[*types.Func]*CGNode
	byName map[string]*CGNode
	// pkgRefs holds the functions referenced or called from package-level
	// var initializers, in first-seen order: they have no caller node, so
	// reachability roots them (a registry map, a flag default).
	pkgRefs []*types.Func
}

// Node returns fn's node, or nil when fn is not a declared module
// function.
func (g *CallGraph) Node(fn *types.Func) *CGNode {
	if g == nil || fn == nil {
		return nil
	}
	return g.nodes[fn]
}

// Funcs returns every node's function sorted by full name.
func (g *CallGraph) Funcs() []*types.Func {
	names := make([]string, 0, len(g.byName))
	for n := range g.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*types.Func, 0, len(names))
	for _, n := range names {
		out = append(out, g.byName[n].Fn)
	}
	return out
}

// dynSite is an unresolved call through a function value.
type dynSite struct {
	caller *types.Func
	sig    *types.Signature
	mode   CallMode
	pos    token.Position
}

// ifaceSite is an unresolved interface method call.
type ifaceSite struct {
	caller *types.Func
	iface  *types.Interface
	name   string
	mode   CallMode
	pos    token.Position
}

// cgBuilder accumulates graph state across passes inside the FactSet.
type cgBuilder struct {
	graph      *CallGraph
	addrTaken  map[*types.Func]bool
	addrOrder  []*types.Func // deterministic iteration order of addrTaken
	dynSites   []dynSite
	ifaceSites []ifaceSite
	named      []*types.TypeName // module named types, for iface resolution
	namedSeen  map[*types.TypeName]bool
	finalized  bool
}

func newCGBuilder() *cgBuilder {
	return &cgBuilder{
		graph:     &CallGraph{nodes: map[*types.Func]*CGNode{}, byName: map[string]*CGNode{}},
		addrTaken: map[*types.Func]bool{},
		namedSeen: map[*types.TypeName]bool{},
	}
}

// CallGraph returns the module-wide graph. It is complete only after the
// fact phase (RunWith finalizes it before any rule checks).
func (fs *FactSet) CallGraph() *CallGraph {
	if fs == nil || fs.cg == nil {
		return nil
	}
	return fs.cg.graph
}

// AddCallGraphPass feeds one pass's declarations and call sites into the
// graph. The engine calls it for every pass (fact-only included) before
// the rule fact phase; FinalizeCallGraph resolves dynamic and interface
// call sites once all declarations are known.
func (fs *FactSet) AddCallGraphPass(p *Pass) {
	if p.Info == nil {
		return
	}
	b := fs.cg
	for _, sf := range p.Files {
		if sf.Test {
			continue
		}
		b.addFile(p, sf)
	}
}

func (b *cgBuilder) addFile(p *Pass, sf *SourceFile) {
	for _, decl := range sf.AST.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			if d.Tok == token.TYPE {
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if tn, ok := p.Info.Defs[ts.Name].(*types.TypeName); ok && !b.namedSeen[tn] {
						b.namedSeen[tn] = true
						b.named = append(b.named, tn)
					}
				}
			}
			// Package-level var initializers can reference functions as
			// values (e.g. a registry map); scan them for address-taken
			// functions with no caller to attribute the edge to.
			if d.Tok == token.VAR {
				b.scanBody(p, nil, nil, d)
			}
		case *ast.FuncDecl:
			fn, ok := p.Info.Defs[d.Name].(*types.Func)
			if !ok || fn == nil {
				continue
			}
			node := &CGNode{Fn: fn, Pos: p.position(d.Pos())}
			b.graph.nodes[fn] = node
			b.graph.byName[fn.FullName()] = node
			if d.Body != nil {
				b.scanBody(p, fn, node, d.Body)
			}
		}
	}
}

// scanBody walks one declaration's subtree recording call edges, dynamic
// and interface call sites, and address-taken functions. caller/node are
// nil for package-level var initializers.
func (b *cgBuilder) scanBody(p *Pass, caller *types.Func, node *CGNode, root ast.Node) {
	// Calls launched with go or defer get their own edge mode.
	mode := map[*ast.CallExpr]CallMode{}
	// The callee position of every call (and the Sel of a selector
	// callee) must not double as an address-taken reference.
	calleeExpr := map[ast.Expr]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			mode[n.Call] = CallGo
		case *ast.DeferStmt:
			mode[n.Call] = CallDefer
		case *ast.CallExpr:
			fun := uninstantiate(ast.Unparen(n.Fun))
			calleeExpr[fun] = true
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				calleeExpr[sel.Sel] = true
			}
		}
		return true
	})
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			m, ok := mode[n]
			if !ok {
				m = CallStatic
			}
			b.addCall(p, caller, node, n, m)
		case *ast.Ident:
			if calleeExpr[n] {
				return true
			}
			if fn, ok := p.Info.Uses[n].(*types.Func); ok {
				fn = fn.Origin()
				b.markAddrTaken(fn)
				b.edge(node, fn, CallRef, p.position(n.Pos()))
			}
		}
		return true
	})
}

// uninstantiate strips an explicit instantiation from a callee expression:
// the call newLRU[entry](n) calls newLRU. Any other expression, including
// an index into a slice or map of function values, is returned as is.
func uninstantiate(fun ast.Expr) ast.Expr {
	var x ast.Expr
	switch f := fun.(type) {
	case *ast.IndexExpr:
		x = f.X
	case *ast.IndexListExpr:
		x = f.X
	default:
		return fun
	}
	switch x.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return x
	}
	return fun
}

// edge records a call or reference to fn from node, or, at package level
// (nil node), records fn as a package-level reference.
func (b *cgBuilder) edge(node *CGNode, fn *types.Func, m CallMode, pos token.Position) {
	if node != nil {
		node.Edges = append(node.Edges, CGEdge{Callee: fn, Mode: m, Pos: pos})
		return
	}
	b.graph.pkgRefs = append(b.graph.pkgRefs, fn)
}

func (b *cgBuilder) markAddrTaken(fn *types.Func) {
	if !b.addrTaken[fn] {
		b.addrTaken[fn] = true
		b.addrOrder = append(b.addrOrder, fn)
	}
}

// addCall classifies one call site. Conversions and builtins are skipped;
// calls that resolve to a declared function get a static edge to its
// generic origin (a method of lru[V] instantiated at V = entry has its
// own *types.Func, but only the declared origin is a node); interface
// method calls and function-value calls are recorded for resolution in
// FinalizeCallGraph.
func (b *cgBuilder) addCall(p *Pass, caller *types.Func, node *CGNode, call *ast.CallExpr, m CallMode) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		return // conversion
	}
	pos := p.position(call.Lparen)
	switch f := uninstantiate(fun).(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[f].(type) {
		case *types.Func:
			b.edge(node, obj.Origin(), m, pos)
			return
		case *types.Builtin, *types.TypeName:
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				if caller != nil {
					b.ifaceSites = append(b.ifaceSites, ifaceSite{caller: caller, iface: iface, name: f.Sel.Name, mode: m, pos: pos})
				}
				return
			}
		}
		if obj, ok := p.Info.Uses[f.Sel].(*types.Func); ok {
			b.edge(node, obj.Origin(), m, pos)
			return
		}
	}
	// A call through a function value (variable, field, parameter, or the
	// result of another call).
	if caller == nil {
		return
	}
	tv, ok := p.Info.Types[fun]
	if !ok || tv.Type == nil {
		return
	}
	if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
		b.dynSites = append(b.dynSites, dynSite{caller: caller, sig: sig, mode: m, pos: pos})
	}
}

// FinalizeCallGraph resolves the recorded dynamic and interface call
// sites against the full declaration set and deduplicates edges. The
// engine calls it once after every pass has been added.
func (fs *FactSet) FinalizeCallGraph() {
	b := fs.cg
	if b.finalized {
		return
	}
	b.finalized = true
	// Dynamic calls: every address-taken module function with an
	// identical signature may be the callee (go/types ignores receivers
	// when comparing signatures, so method values match too). A site
	// launched with go or defer keeps that mode — locksafe's blocking
	// propagation must not treat a goroutine launch as the caller
	// blocking — while a plain call becomes a dynamic edge.
	for _, site := range b.dynSites {
		node := b.graph.nodes[site.caller]
		if node == nil {
			continue
		}
		mode := site.mode
		if mode == CallStatic {
			mode = CallDynamic
		}
		for _, fn := range b.addrOrder {
			sig, ok := fn.Type().(*types.Signature)
			if !ok || !types.Identical(sig, site.sig) {
				continue
			}
			node.Edges = append(node.Edges, CGEdge{Callee: fn, Mode: mode, Pos: site.pos})
		}
	}
	// Interface calls: the named method of every module type whose
	// pointer type implements the interface. Go/defer launches keep
	// their mode here too.
	for _, site := range b.ifaceSites {
		node := b.graph.nodes[site.caller]
		if node == nil {
			continue
		}
		mode := site.mode
		if mode == CallStatic {
			mode = CallIface
		}
		for _, target := range b.implementers(site.iface, site.name) {
			node.Edges = append(node.Edges, CGEdge{Callee: target, Mode: mode, Pos: site.pos})
		}
	}
	for _, node := range b.graph.nodes {
		node.Edges = dedupeEdges(node.Edges)
	}
}

// implementers returns the concrete method `name` of every module named
// type implementing iface, sorted by full name for determinism.
func (b *cgBuilder) implementers(iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	for _, tn := range b.named {
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		pt := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(pt, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, tn.Pkg(), name)
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// dedupeEdges removes duplicate (callee, mode) pairs, keeping first
// occurrence order.
func dedupeEdges(edges []CGEdge) []CGEdge {
	type key struct {
		fn   *types.Func
		mode CallMode
	}
	seen := map[key]bool{}
	out := edges[:0]
	for _, e := range edges {
		k := key{e.Callee, e.Mode}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
}
