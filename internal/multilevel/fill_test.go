package multilevel

import (
	"math"
	"testing"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
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
