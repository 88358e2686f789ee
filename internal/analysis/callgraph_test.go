package analysis

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// loadCallGraphFixture loads the two-package fixture module under
// testdata/callgraph with the given loader parallelism.
func loadCallGraphFixture(t *testing.T, parallelism int) []*Pass {
	t.Helper()
	passes, err := Load(Config{
		Root:        "testdata/callgraph",
		Module:      "example.com/cg",
		Parallelism: parallelism,
	})
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

// BuildCallGraph constructs and finalizes the call graph of a pass set
// without running any rules.
func BuildCallGraph(passes []*Pass) *CallGraph {
	fs := NewFactSet()
	for _, p := range passes {
		fs.AddCallGraphPass(p)
	}
	fs.FinalizeCallGraph()
	return fs.CallGraph()
}

// Lookup finds a node by types.Func.FullName, e.g.
// "(*geoprocmap/internal/core.GeoMapper).Map".
func (g *CallGraph) Lookup(fullName string) *CGNode {
	if g == nil {
		return nil
	}
	return g.byName[fullName]
}

func edgeStrings(n *CGNode) []string {
	if n == nil {
		return nil
	}
	var out []string
	for _, e := range n.Edges {
		out = append(out, e.Mode.String()+" "+e.Callee.FullName())
	}
	return out
}

// TestCallGraphEdges pins the exact edge set of every fixture function:
// static cross-package and method calls, dynamic resolution by signature,
// interface resolution to a concrete type in another package, go/defer
// modes, a recursion cycle, and calls into generic code: an explicit
// instantiation and a method of an instantiated type are static edges to
// the generic declarations.
func TestCallGraphEdges(t *testing.T) {
	g := BuildCallGraph(loadCallGraphFixture(t, 1))
	want := map[string][]string{
		"example.com/cg/alpha.Leaf":  nil,
		"example.com/cg/alpha.Clock": {"static time.Now"},
		"(example.com/cg/alpha.T).M": nil,
		"example.com/cg/beta.Static": {
			"static example.com/cg/alpha.Leaf",
			"static (example.com/cg/alpha.T).M",
		},
		"example.com/cg/beta.Dynamic": {
			"ref example.com/cg/alpha.Leaf",
			"dynamic example.com/cg/alpha.Leaf",
			"dynamic (example.com/cg/alpha.T).M",
		},
		"example.com/cg/beta.Via": {
			"iface (example.com/cg/beta.Impl).Do",
		},
		"(example.com/cg/beta.Impl).Do": nil,
		"example.com/cg/beta.Ping":      {"static example.com/cg/beta.Pong"},
		"example.com/cg/beta.Pong": {
			"static example.com/cg/alpha.Clock",
			"static example.com/cg/beta.Ping",
		},
		"example.com/cg/beta.Spawn": {
			"go example.com/cg/alpha.Leaf",
			"defer example.com/cg/alpha.Leaf",
		},
		"example.com/cg/beta.Root": {"static example.com/cg/beta.Ping"},
		"example.com/cg/beta.MethodValue": {
			"ref (example.com/cg/alpha.T).M",
			"dynamic example.com/cg/alpha.Leaf",
			"dynamic (example.com/cg/alpha.T).M",
		},
		"example.com/cg/beta.DeferredClosure": {
			"static example.com/cg/alpha.Leaf",
			"defer example.com/cg/alpha.Leaf",
			"defer (example.com/cg/alpha.T).M",
		},
		"example.com/cg/beta.GoInRange": {
			"go example.com/cg/alpha.Clock",
		},
		"example.com/cg/alpha.NewBox":        nil,
		"(*example.com/cg/alpha.Box[T]).Get": nil,
		"example.com/cg/beta.Generic": {
			"static example.com/cg/alpha.NewBox",
			"static (*example.com/cg/alpha.Box[T]).Get",
		},
	}
	var gotNames []string
	for _, fn := range g.Funcs() {
		gotNames = append(gotNames, fn.FullName())
	}
	if len(gotNames) != len(want) {
		t.Errorf("graph has %d nodes %v, want %d", len(gotNames), gotNames, len(want))
	}
	for name, wantEdges := range want {
		node := g.Lookup(name)
		if node == nil {
			t.Errorf("no node for %s", name)
			continue
		}
		if got := edgeStrings(node); !reflect.DeepEqual(got, wantEdges) {
			t.Errorf("%s edges = %v, want %v", name, got, wantEdges)
		}
	}
}

// TestCallGraphTaintTermination runs detcheck over the fixture: the only
// annotated root reaches time.Now through the Ping/Pong recursion cycle,
// so the walk must terminate and report the full call chain exactly once.
func TestCallGraphTaintTermination(t *testing.T) {
	findings := Run(loadCallGraphFixture(t, 1), []Rule{&DetCheckRule{}})
	if len(findings) != 1 {
		t.Fatalf("got %d findings %v, want 1", len(findings), findings)
	}
	f := findings[0]
	if f.Rule != "detcheck" {
		t.Errorf("rule = %s, want detcheck", f.Rule)
	}
	for _, part := range []string{
		"beta.Root -> beta.Ping -> beta.Pong -> alpha.Clock",
		"time.Now",
	} {
		if !strings.Contains(f.Message, part) {
			t.Errorf("message %q does not mention %q", f.Message, part)
		}
	}
}

// TestLoadParallelDeterministic checks the parallel loader against the
// serial one: same pass list, same findings, byte for byte — and runs
// several parallel loads concurrently so `go test -race` can catch any
// sharing between loader workers.
func TestLoadParallelDeterministic(t *testing.T) {
	render := func(passes []*Pass) []string {
		var out []string
		for _, p := range passes {
			out = append(out, fmt.Sprintf("pass %s files=%d factsOnly=%v", p.Path, len(p.Files), p.FactsOnly))
		}
		for _, f := range Run(passes, []Rule{&DetCheckRule{}, &LockSafeRule{}, &MapIterRule{}}) {
			out = append(out, fmt.Sprintf("%s:%d %s %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message))
		}
		return out
	}
	want := render(loadCallGraphFixture(t, 1))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			passes, err := Load(Config{
				Root:        "testdata/callgraph",
				Module:      "example.com/cg",
				Parallelism: 4,
			})
			if err != nil {
				t.Errorf("parallel Load: %v", err)
				return
			}
			if got := render(passes); !reflect.DeepEqual(got, want) {
				t.Errorf("parallel load diverged:\ngot  %v\nwant %v", got, want)
			}
		}()
	}
	wg.Wait()
}
