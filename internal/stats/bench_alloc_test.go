package stats

import "testing"

// The BenchmarkAlloc* family gates the allocation discipline of the
// //geolint:allocfree Scratch estimators: 0 allocs/op once the buffer is
// warm. make bench-alloc runs them with -benchmem and fails on any
// nonzero allocs/op.

var benchStat float64

func benchSample() []float64 {
	xs := make([]float64, 128)
	for i := range xs {
		// Deterministic but unsorted: a small LCG keeps the sort honest.
		xs[i] = float64((i*2654435761 + 1) % 1000)
	}
	return xs
}

func BenchmarkAllocTrimmedMeanScratch(b *testing.B) {
	xs := benchSample()
	var s Scratch
	s.Prewarm(len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStat = s.TrimmedMean(xs, 0.2)
	}
}

func BenchmarkAllocPercentileScratch(b *testing.B) {
	xs := benchSample()
	var s Scratch
	s.Prewarm(len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStat = s.Percentile(xs, 99)
	}
}
