package multilevel

import (
	"fmt"
	"math"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// clusteredInstance is the level-0 instance of core's clusteredProblem
// test fixture: cliques of four with heavy asymmetric traffic, light
// inter-clique links, and distance-shaped LT/BT over m sites on a line. It
// keeps BenchmarkAllocFill on the instance its recorded ns/op was taken
// on.
func clusteredInstance(n, m int, seed int64) *Instance {
	rng := stats.NewRand(seed)
	g := comm.NewGraph(n)
	for base := 0; base+4 <= n; base += 4 {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				vol := 1e6 * (1 + rng.Float64())
				g.AddTraffic(base+i, base+j, vol, 10)
				g.AddTraffic(base+j, base+i, vol/2, 5)
			}
		}
		if base > 0 {
			g.AddTraffic(base, base-1, 1e3, 1)
		}
	}
	lt, bt := mat.NewSquare(m), mat.NewSquare(m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				lt.Set(k, l, 0.001)
				bt.Set(k, l, 100e6)
				continue
			}
			d := math.Abs(float64(k - l))
			lt.Set(k, l, 0.05*d)
			bt.Set(k, l, 20e6/d)
		}
	}
	return &Instance{
		G:        FromComm(g),
		LT:       lt,
		BT:       bt,
		Capacity: mat.NewIntVec(m, (n+m-1)/m),
		Pin:      mat.NewIntVec(n, -1),
	}
}

var benchFill []int

// BenchmarkAllocFill measures one greedy fill, the per-order body of the
// GeoMapper order search (recorded in results/BENCH_alloc.json).
func BenchmarkAllocFill(b *testing.B) {
	f := NewFill(clusteredInstance(64, 4, 11))
	ordered := [][]int{{0}, {1}, {2}, {3}}
	benchFill = f.Run(ordered) // warm members to their high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFill = f.Run(ordered)
	}
}

// TestFillDoesNotAllocatePerOrder locks in the fill's no-reallocation
// contract across the κ! loop (the groupDone scratch used to be allocated
// on every order), with pins and site sets on the paths.
func TestFillDoesNotAllocatePerOrder(t *testing.T) {
	in := testInstance(t, 64, 8, true, true)
	f := NewFill(in)
	ordered := [][]int{in.Groups[2], in.Groups[0], in.Groups[3], in.Groups[1]}
	f.Run(ordered) // warm up: members slices grow to their high-water mark
	if allocs := testing.AllocsPerRun(50, func() { f.Run(ordered) }); allocs != 0 {
		t.Errorf("fill allocates %.0f objects per order, want 0", allocs)
	}
}

// A single-site instance has no inter-site pair, so the scalarization
// falls back to the intra-site latency and bandwidth.
func TestReferenceWeightsSingleSite(t *testing.T) {
	g := comm.NewGraph(2)
	g.AddTraffic(0, 1, 100, 1)
	in := &Instance{
		G:        FromComm(g),
		LT:       mat.MustFrom([][]float64{{0.5}}),
		BT:       mat.MustFrom([][]float64{{2e6}}),
		Capacity: []int{2},
		Pin:      []int{-1, -1},
	}
	if ref := in.refWeights(); ref.lat != 0.5 || ref.bw != 2e6 {
		t.Errorf("refWeights = %v, %v; want intra values", ref.lat, ref.bw)
	}
}

// TestSearchOrdersMatchesSerialScan checks the shared order search against
// a brute-force serial scan of the ranks [0, min(limit, κ!)): the same
// placement and cost at every worker count, including more workers than
// ranks. The evaluator prices an order by a coarse function of its
// permutation, so many orders tie on cost and the lowest rank must win,
// and it reports every fifth code infeasible; an evaluator that rejects
// every order must leave the search not-ok.
func TestSearchOrdersMatchesSerialScan(t *testing.T) {
	const k = 4
	groups := make([][]int, k)
	for i := range groups {
		groups[i] = []int{i}
	}
	code := func(ordered [][]int) int {
		c := 0
		for i, g := range ordered {
			c += (i + 1) * g[0]
		}
		return c
	}
	newEval := func(feasible func(c int) bool) func() Eval {
		return func() Eval {
			pl := make([]int, k)
			return func(ordered [][]int) ([]int, units.Cost, bool) {
				c := code(ordered)
				if !feasible(c) {
					return nil, 0, false
				}
				for i, g := range ordered {
					pl[i] = g[0]
				}
				return pl, units.Cost(c % 4), true
			}
		}
	}
	someInfeasible := func(c int) bool { return c%5 != 0 }
	total := stats.FactorialInt(k)
	for _, limit := range []int{1, 5, total, 720} {
		// Brute force: the first strict minimum in ascending rank order.
		var want []int
		wantCost := units.Cost(math.Inf(1))
		eval := newEval(someInfeasible)()
		for rank := 0; rank < min(limit, total); rank++ {
			perm := stats.PermutationUnrank(k, rank)
			ordered := make([][]int, k)
			for i, gi := range perm {
				ordered[i] = groups[gi]
			}
			if pl, c, ok := eval(ordered); ok && c < wantCost {
				want, wantCost = append([]int(nil), pl...), c
			}
		}
		for _, workers := range []int{1, 2, 3, 8, limit + 1} {
			got, cost, ok := SearchOrders(groups, limit, workers, newEval(someInfeasible))
			if want == nil {
				if ok {
					t.Errorf("limit=%d workers=%d: found %v, want no feasible order", limit, workers, got)
				}
				continue
			}
			if !ok || cost != wantCost || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("limit=%d workers=%d: got %v cost %v ok %v, want %v cost %v", limit, workers, got, cost, ok, want, wantCost)
			}
			if _, _, ok := SearchOrders(groups, limit, workers, newEval(func(int) bool { return false })); ok {
				t.Errorf("limit=%d workers=%d: all-infeasible search reported ok", limit, workers)
			}
		}
	}
}
