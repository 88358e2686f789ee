package comm

import "testing"

// The BenchmarkAlloc* family gates the allocation discipline of the
// //geolint:allocfree adjacency views: once Prewarm has frozen the graph,
// reads must measure 0 allocs/op. make bench-alloc runs them with
// -benchmem and fails on any nonzero allocs/op.

var (
	benchEdges []Edge
	benchQty   float64
)

func benchGraph() *Graph {
	g := NewGraph(64)
	for i := 0; i < 64; i++ {
		for d := 1; d <= 4; d++ {
			g.AddTraffic(i, (i+d)%64, float64(1000*d), float64(d))
		}
	}
	g.Prewarm()
	return g
}

func BenchmarkAllocOutgoing(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEdges = g.Outgoing(i % 64)
	}
}

func BenchmarkAllocNeighbors(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchQty = 0
		g.Neighbors(i%64, func(_ int, vol, _ float64) { benchQty += vol })
	}
}

func BenchmarkAllocQuantity(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchQty = g.Quantity(i % 64)
	}
}
