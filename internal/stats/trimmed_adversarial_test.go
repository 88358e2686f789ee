package stats

import (
	"math"
	"testing"
)

// TestTrimmedMeanNonFinite pins the NaN/Inf guards the re-gauging loop
// relies on: non-finite samples are dropped before trimming (a single
// timeout-poisoned probe estimate must not turn the smoothed model into
// NaN), and an all-non-finite window collapses to 0 rather than
// propagating garbage.
func TestTrimmedMeanNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// One NaN among finite samples: dropped, the rest trim normally.
	if got := new(Scratch).TrimmedMean([]float64{1, 2, 3, nan}, 0); got != 2 {
		t.Errorf("TrimmedMean with NaN = %v, want mean of finite 2", got)
	}
	// ±Inf likewise: an untrimmed mean would be ±Inf or NaN.
	if got := new(Scratch).TrimmedMean([]float64{1, 2, 3, inf, -inf}, 0); got != 2 {
		t.Errorf("TrimmedMean with ±Inf = %v, want 2", got)
	}
	if got := new(Scratch).TrimmedMean([]float64{nan, inf, -inf}, 0.2); got != 0 {
		t.Errorf("new(Scratch).TrimmedMean(all non-finite) = %v, want 0", got)
	}
	if got := new(Scratch).TrimmedMean([]float64{nan}, 0.34); got != 0 {
		t.Errorf("new(Scratch).TrimmedMean(single NaN) = %v, want 0", got)
	}
	// The guard must not mutate the caller's window.
	xs := []float64{5, nan, 7}
	_ = new(Scratch).TrimmedMean(xs, 0.34)
	if !math.IsNaN(xs[1]) || xs[0] != 5 || xs[2] != 7 {
		t.Errorf("TrimmedMean mutated its input: %v", xs)
	}
}

// TestTrimmedMeanAllOutliers covers windows where trimming cannot save
// the estimate: every sample is the "outlier". The function must still
// return a finite, order-independent value.
func TestTrimmedMeanAllOutliers(t *testing.T) {
	// All samples identical and extreme: the trimmed mean is that value.
	huge := []float64{1e300, 1e300, 1e300}
	if got := new(Scratch).TrimmedMean(huge, 0.34); got != 1e300 {
		t.Errorf("new(Scratch).TrimmedMean(constant extreme) = %v, want 1e300", got)
	}
	// Median-of-3 with two coordinated outliers: the outliers win the
	// vote — trimming rejects a single bad pass, not a majority. Pinning
	// this documents the smoothing window's actual (limited) guarantee.
	if got := new(Scratch).TrimmedMean([]float64{1, 1000, 1000}, 0.34); got != 1000 {
		t.Errorf("new(Scratch).TrimmedMean(minority good) = %v, want majority 1000", got)
	}
	if got := new(Scratch).TrimmedMean([]float64{1000, 1, 1000}, 0.34); got != 1000 {
		t.Errorf("TrimmedMean must be order-independent, got %v", got)
	}
	// And the single-bad-pass case it does guarantee.
	if got := new(Scratch).TrimmedMean([]float64{1, 1, 1000}, 0.34); got != 1 {
		t.Errorf("new(Scratch).TrimmedMean(single outlier) = %v, want 1", got)
	}
}

// TestTrimmedMeanSingleSample: a window of one (the gauger's first pass)
// returns the sample at any fraction, finite or not.
func TestTrimmedMeanSingleSample(t *testing.T) {
	for _, frac := range []float64{0, 0.34, 0.49, 0.5, 3} {
		if got := new(Scratch).TrimmedMean([]float64{17.5}, frac); got != 17.5 {
			t.Errorf("new(Scratch).TrimmedMean(singleton, frac=%v) = %v, want 17.5", frac, got)
		}
	}
	if got := new(Scratch).TrimmedMean([]float64{math.Inf(-1)}, 0.34); got != 0 {
		t.Errorf("new(Scratch).TrimmedMean(singleton -Inf) = %v, want 0", got)
	}
}
