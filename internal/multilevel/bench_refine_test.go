package multilevel

import (
	"testing"

	"geoprocmap/internal/units"
)

// benchRefiner builds a mid-size level-0 refinement state: 4096 vertices,
// 16 sites, ring+stride+random pattern — the scale the multilevel-smoke
// target solves. Returned ready to propose: loads computed, buffer at its
// high-water mark.
func benchRefiner(b *testing.B) (*refiner, []int, units.Cost) {
	b.Helper()
	in := testInstance(b, 4096, 16, false, false)
	lv := &level{g: in.G, pin: in.Pin, allowed: normalizeAllowed(in.Allowed, in.G.n)}
	r := newRefiner(in, 1, 1)
	r.attach(lv)
	pl := make([]int, in.G.n)
	for v := range pl {
		pl[v] = (v * in.M()) / in.G.n
	}
	for v, s := range pl {
		r.load[s] += in.G.weight[v]
	}
	tol := RefineTol(in.Cost(pl))
	r.bufs[0] = r.proposeRange(pl, 0, in.G.n, tol, r.bufs[0][:0])
	return r, pl, tol
}

var (
	benchCost  units.Cost
	benchProps int
)

// BenchmarkRefineMoveDelta is the headline ns/move figure tracked in
// results/BENCH_refine.json: one O(degree) move-delta evaluation.
func BenchmarkRefineMoveDelta(b *testing.B) {
	r, pl, _ := benchRefiner(b)
	n, m := r.g.n, r.in.M()
	b.ReportAllocs()
	b.ResetTimer()
	var acc units.Cost
	for i := 0; i < b.N; i++ {
		v := i % n
		acc += r.in.moveDelta(r.g, pl, v, (pl[v]+1+i%(m-1))%m)
	}
	benchCost = acc
}

// BenchmarkRefineMoveSwap is one O(degree) swap-delta evaluation.
func BenchmarkRefineMoveSwap(b *testing.B) {
	r, pl, _ := benchRefiner(b)
	n := r.g.n
	b.ReportAllocs()
	b.ResetTimer()
	var acc units.Cost
	for i := 0; i < b.N; i++ {
		v := i % n
		acc += r.in.swapDelta(r.g, pl, v, (v+n/2)%n)
	}
	benchCost = acc
}

// BenchmarkRefineMoveBestStep is one full per-vertex candidate scan: every
// admissible site move plus every neighbor swap.
func BenchmarkRefineMoveBestStep(b *testing.B) {
	r, pl, tol := benchRefiner(b)
	n := r.g.n
	b.ReportAllocs()
	b.ResetTimer()
	var acc units.Cost
	for i := 0; i < b.N; i++ {
		p, ok := r.bestStep(pl, i%n, tol)
		if ok {
			acc += p.delta
		}
	}
	benchCost = acc
}

// BenchmarkRefineMoveProposeSweep is one whole proposal sweep over the
// 4096-vertex graph (divide ns/op by 4096 for the per-vertex figure).
func BenchmarkRefineMoveProposeSweep(b *testing.B) {
	r, pl, tol := benchRefiner(b)
	n := r.g.n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.bufs[0] = r.proposeRange(pl, 0, n, tol, r.bufs[0][:0])
	}
	benchProps = len(r.bufs[0])
}

// BenchmarkAllocRefinePropose gates the refinement inner loop in the
// bench-alloc zero-allocation check, alongside the other
// //geolint:allocfree roots.
func BenchmarkAllocRefinePropose(b *testing.B) {
	r, pl, tol := benchRefiner(b)
	n := r.g.n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.bufs[0] = r.proposeRange(pl, 0, n, tol, r.bufs[0][:0])
	}
	benchProps = len(r.bufs[0])
}
