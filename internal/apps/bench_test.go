package apps

import "testing"

// BenchmarkProfilePreset profiles workloads into frozen graphs, as the
// mapping service does on a cold preset request: presets-256x1 is one
// pass over the seven presets at 256 processes and one iteration (the
// serve benchmarks' set-up solves), kmeans-4096x100 the largest preset
// request the service admits.
func BenchmarkProfilePreset(b *testing.B) {
	profile := func(b *testing.B, a App, n, iters int) {
		g, err := Graph(a, n, iters)
		if err != nil {
			b.Fatal(err)
		}
		g.Prewarm()
	}
	b.Run("presets-256x1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, a := range Extended() {
				profile(b, a, 256, 1)
			}
		}
	})
	b.Run("kmeans-4096x100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			profile(b, NewKMeans(), 4096, 100)
		}
	})
}
