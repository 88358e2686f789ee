package core

import (
	"testing"

	"geoprocmap/internal/units"
)

// The BenchmarkAlloc* family gates the allocation discipline the allocsafe
// rule enforces statically: every //geolint:allocfree root must measure
// 0 allocs/op once its caches are warm. make bench-alloc runs them
// with -benchmem and fails on any nonzero allocs/op.

var (
	benchCost units.Cost
	benchBool bool
)

// benchAllocProblem returns a clustered problem with its comm graph
// frozen and a valid placement, so the measured loops only read the CSR
// rows.
func benchAllocProblem(b *testing.B) (*Problem, Placement) {
	b.Helper()
	p := clusteredProblem(64, 4, 11)
	p.Comm.Prewarm()
	pl := make(Placement, p.N())
	for i := range pl {
		pl[i] = i % p.M()
	}
	return p, pl
}

func BenchmarkAllocCost(b *testing.B) {
	p, pl := benchAllocProblem(b)
	benchCost = p.Cost(pl) // warm any remaining lazy state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCost = p.Cost(pl)
	}
}

func BenchmarkAllocCostParts(b *testing.B) {
	p, pl := benchAllocProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat, bw := p.CostParts(pl)
		benchCost = lat + bw
	}
}

func BenchmarkAllocExchangeDelta(b *testing.B) {
	p, pl := benchAllocProblem(b)
	in := p.instance(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCost = in.SwapDelta(pl, i%p.N(), (i+7)%p.N())
	}
}

func BenchmarkAllocRefinePass(b *testing.B) {
	p, pl := benchAllocProblem(b)
	in := p.instance(nil)
	base := append(Placement(nil), pl...)
	scratch := make(Placement, len(pl))
	baseCost := p.Cost(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, base)
		cost := baseCost
		benchBool = refinePass(p, in, scratch, &cost)
	}
}
