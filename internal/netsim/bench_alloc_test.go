package netsim

import (
	"testing"

	"geoprocmap/internal/units"
)

// BenchmarkAllocMaxMinRates gates the allocation discipline of the
// //geolint:allocfree progressive-filling solver: after the first call
// sizes the constraint set's scratch arrays, every re-solve must measure
// 0 allocs/op. make bench-alloc runs it with -benchmem and fails on
// any nonzero allocs/op.

var benchRate units.BytesPerSec

func BenchmarkAllocMaxMinRates(b *testing.B) {
	s, err := New(testCloud(), []int{0, 0, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	msgs := []Message{
		{Src: 0, Dst: 2, Bytes: 1e6},
		{Src: 1, Dst: 3, Bytes: 2e6},
		{Src: 0, Dst: 1, Bytes: 5e5},
		{Src: 2, Dst: 3, Bytes: 5e5},
	}
	flows, _, err := s.buildFlows(msgs)
	if err != nil {
		b.Fatal(err)
	}
	// Register constraints exactly as solveFluid does (shared WAN pipes).
	reg := newConstraintSet()
	for _, f := range flows {
		k, l := s.mapping[f.src], s.mapping[f.dst]
		if k != l {
			f.constraints = append(f.constraints, reg.id(conKey{kind: conLink, a: k, b: l}, s.cloud.Bandwidth(k, l)))
		}
		f.constraints = append(f.constraints,
			reg.id(conKey{kind: conEgress, a: f.src}, s.nic[f.src]),
			reg.id(conKey{kind: conIngress, a: f.dst}, s.nic[f.dst]))
	}
	benchRate = reg.maxMinRates(flows)[0] // size the scratch arrays
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRate = reg.maxMinRates(flows)[0]
	}
}
