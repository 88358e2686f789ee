package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadCodeRule reports every declared function and method that no binary
// reaches. Reachability runs once over the finished module call graph
// from these roots:
//
//   - every main and init function;
//   - every function referenced or called from a package-level var
//     initializer (it has no caller node to attribute the edge to);
//   - every method whose name and signature match a method of a
//     standard-library interface the graph cannot see into (String,
//     Error, MarshalJSON, ServeHTTP, Len/Less/Swap, Push/Pop, Import; see
//     stdlibMethods): the standard library calls it.
//
// _test.go files are never roots, so a function only tests call is dead:
// it belongs in a _test.go file of its package. A function reached only
// from outside the module (the _perfbench module, another package's
// tests) carries //geolint:ignore deadcode <who calls it>.
//
// The rule needs every caller loaded: RunWith leaves it out of a run over
// a subtree (geolint ./internal/...), which therefore neither reports it
// nor calls its ignore directives stale.
type DeadCodeRule struct {
	roots   []*types.Func
	reached map[*types.Func]bool
}

func (*DeadCodeRule) ID() string { return "deadcode" }

func (*DeadCodeRule) Doc() string {
	return "report functions and methods unreachable from every main, init and package-level declaration"
}

// stdlibMethods lists the methods the standard library calls through its
// interfaces, keyed by name and signature as methodKey renders them.
var stdlibMethods = map[string]string{
	"String() string":               "fmt.Stringer",
	"Error() string":                "error",
	"MarshalJSON() ([]byte, error)": "encoding/json.Marshaler",
	"ServeHTTP(net/http.ResponseWriter, *net/http.Request)": "net/http.Handler",
	"Len() int":           "sort.Interface",
	"Less(int, int) bool": "sort.Interface",
	"Swap(int, int)":      "sort.Interface",
	"Push(any)":           "container/heap.Interface",
	"Pop() any":           "container/heap.Interface",
	"Import(string) (*go/types.Package, error)": "go/types.Importer",
}

// methodKey renders a method as name(params) results, with package-path
// qualified types and the empty interface spelled any.
func methodKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	tuple := func(t *types.Tuple) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), qual)
		}
		return strings.Join(parts, ", ")
	}
	key := fn.Name() + "(" + tuple(sig.Params()) + ")"
	switch sig.Results().Len() {
	case 0:
	case 1:
		key += " " + tuple(sig.Results())
	default:
		key += " (" + tuple(sig.Results()) + ")"
	}
	return strings.ReplaceAll(key, "interface{}", "any")
}

// isRoot reports whether a declared function is a reachability root.
func isRoot(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		_, ok := stdlibMethods[methodKey(fn)]
		return ok
	}
	return fn.Name() == "init" || fn.Name() == "main" && fn.Pkg().Name() == "main"
}

// ExportFacts collects the roots declared in one pass's non-test files.
func (r *DeadCodeRule) ExportFacts(p *Pass, fs *FactSet) {
	if p.Info == nil {
		return
	}
	for _, sf := range p.Files {
		if sf.Test {
			continue
		}
		walkFuncs(sf.AST, func(fd *ast.FuncDecl) {
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok && isRoot(fn) {
				r.roots = append(r.roots, fn)
			}
		})
	}
}

// FinalizeFacts marks everything reachable from the roots over every edge
// mode: a reference counts, since whoever holds the value may call it.
func (r *DeadCodeRule) FinalizeFacts(fs *FactSet) {
	g := fs.CallGraph()
	r.reached = map[*types.Func]bool{}
	stack := append(append([]*types.Func{}, r.roots...), g.pkgRefs...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r.reached[fn] {
			continue
		}
		r.reached[fn] = true
		if n := g.Node(fn); n != nil {
			for _, e := range n.Edges {
				stack = append(stack, e.Callee)
			}
		}
	}
}

// Check reports the pass's unreached functions at their declarations.
func (r *DeadCodeRule) Check(p *Pass) []Finding {
	if r.reached == nil || p.Info == nil {
		return nil
	}
	var out []Finding
	for _, sf := range p.Files {
		if sf.Test {
			continue
		}
		walkFuncs(sf.AST, func(fd *ast.FuncDecl) {
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || fd.Name.Name == "_" || r.reached[fn] {
				return
			}
			out = append(out, Finding{
				Rule: "deadcode",
				Pos:  p.position(fd.Pos()),
				Message: shortFuncName(fn) + " is unreachable from every main, init and package-level declaration" +
					": delete it, move it into a _test.go file, or name its caller with //geolint:ignore deadcode <reason>",
			})
		})
	}
	return out
}
