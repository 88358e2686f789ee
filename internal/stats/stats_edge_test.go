package stats

import (
	"math"
	"testing"
)

// TestTrimmedMeanEdges pins down the documented clamping behavior: empty
// input returns 0, out-of-range fractions are clamped rather than
// panicking (the calibrator passes operator-supplied fractions through),
// and trimming everything falls back to the plain mean.
func TestTrimmedMeanEdges(t *testing.T) {
	if got := new(Scratch).TrimmedMean(nil, 0.2); got != 0 {
		t.Errorf("new(Scratch).TrimmedMean(nil) = %v, want 0", got)
	}
	if got := new(Scratch).TrimmedMean([]float64{}, 0.2); got != 0 {
		t.Errorf("new(Scratch).TrimmedMean(empty) = %v, want 0", got)
	}
	xs := []float64{1, 2, 3, 4, 100}
	// Negative frac clamps to 0: no trimming, plain mean.
	if got, want := new(Scratch).TrimmedMean(xs, -0.3), Mean(xs); got != want {
		t.Errorf("new(Scratch).TrimmedMean(frac=-0.3) = %v, want untrimmed mean %v", got, want)
	}
	// frac >= 0.5 clamps to 0.5. On an odd-length sample that leaves
	// exactly the median; on an even-length sample it would trim
	// everything, so it falls back to the plain mean rather than
	// averaging an empty window.
	for _, frac := range []float64{0.5, 0.9, 7} {
		if got := new(Scratch).TrimmedMean(xs, frac); got != 3 {
			t.Errorf("new(Scratch).TrimmedMean(odd, frac=%v) = %v, want median 3", frac, got)
		}
		even := []float64{1, 2, 3, 100}
		if got, want := new(Scratch).TrimmedMean(even, frac), Mean(even); got != want {
			t.Errorf("new(Scratch).TrimmedMean(even, frac=%v) = %v, want fallback mean %v", frac, got, want)
		}
	}
	// A singleton survives any fraction: one cut element from each side
	// would leave nothing, so the fallback returns the value itself.
	if got := new(Scratch).TrimmedMean([]float64{42}, 0.49); got != 42 {
		t.Errorf("new(Scratch).TrimmedMean(singleton) = %v, want 42", got)
	}
	// Sanity on actual trimming: 20% of 5 samples cuts one from each
	// end, discarding the 100 outlier (and the 1).
	if got, want := new(Scratch).TrimmedMean(xs, 0.2), 3.0; got != want {
		t.Errorf("new(Scratch).TrimmedMean(frac=0.2) = %v, want %v", got, want)
	}
	// The input must not be reordered: trimming sorts a copy.
	if xs[4] != 100 || xs[0] != 1 {
		t.Errorf("TrimmedMean mutated its input: %v", xs)
	}
}

// TestPercentileBoundaries covers the extreme ranks on degenerate
// samples: p=0 and p=100 must be exact order statistics (no
// interpolation overshoot), including on single-element and
// two-element samples.
func TestPercentileBoundaries(t *testing.T) {
	single := []float64{3.5}
	for _, p := range []float64{0, 50, 100} {
		if got := Percentile(single, p); got != 3.5 {
			t.Errorf("P%v of singleton = %v, want 3.5", p, got)
		}
	}
	pair := []float64{-2, 8}
	if got := Percentile(pair, 0); got != -2 {
		t.Errorf("P0 = %v, want -2", got)
	}
	if got := Percentile(pair, 100); got != 8 {
		t.Errorf("P100 = %v, want 8", got)
	}
	if got := Percentile(pair, 50); got != 3 {
		t.Errorf("P50 = %v, want midpoint 3", got)
	}
	// Exact-rank percentiles hit sample values with no interpolation
	// even when the rank arithmetic lands on an integer.
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 25); got != 20 {
		t.Errorf("P25 = %v, want 20", got)
	}
	// Repeated values: percentiles of a constant sample are constant at
	// every p, including the boundaries.
	flat := []float64{7, 7, 7, 7}
	for _, p := range []float64{0, 1, 99, 100} {
		if got := Percentile(flat, p); got != 7 {
			t.Errorf("P%v of constant sample = %v, want 7", p, got)
		}
	}
	// Percentile must not mutate its input either.
	unsorted := []float64{9, 1, 5}
	if got := Percentile(unsorted, 100); got != 9 {
		t.Errorf("P100 = %v, want 9", got)
	}
	if unsorted[0] != 9 || unsorted[1] != 1 {
		t.Errorf("Percentile mutated its input: %v", unsorted)
	}
	// NaN-free inputs stay NaN-free at the boundaries.
	if math.IsNaN(Percentile(pair, 0)) || math.IsNaN(Percentile(pair, 100)) {
		t.Error("boundary percentile produced NaN")
	}
}
