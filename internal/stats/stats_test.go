package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample variance with n-1 denominator: sum sq dev = 32, /7.
	if got := Variance(xs); !almostEq(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(32.0/7))
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice stats should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("singleton variance should be 0")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v, want -1/7", Min(xs), Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Errorf("P100 = %v, want 4", got)
	}
	if got := Percentile(xs, 50); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("P50 = %v, want 2.5", got)
	}
	if got := Percentile([]float64{9}, 37); got != 9 {
		t.Errorf("singleton percentile = %v, want 9", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, tc := range []struct {
		xs []float64
		p  float64
	}{{nil, 50}, {[]float64{1}, -1}, {[]float64{1}, 101}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v, %v) did not panic", tc.xs, tc.p)
				}
			}()
			Percentile(tc.xs, tc.p)
		}()
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 4})
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {5, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestPermutationsCountAndUniqueness(t *testing.T) {
	seen := map[string]bool{}
	Permutations(4, func(p []int) bool {
		key := ""
		for _, v := range p {
			key += string(rune('0' + v))
		}
		if seen[key] {
			t.Fatalf("duplicate permutation %s", key)
		}
		seen[key] = true
		return true
	})
	if len(seen) != 24 {
		t.Errorf("got %d permutations of 4, want 24", len(seen))
	}
}

func TestPermutationsEarlyStop(t *testing.T) {
	calls := 0
	Permutations(5, func(p []int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop after %d calls, want 3", calls)
	}
}

func TestPermutationsZero(t *testing.T) {
	calls := 0
	Permutations(0, func(p []int) bool {
		calls++
		if len(p) != 0 {
			t.Errorf("perm of 0 has length %d", len(p))
		}
		return true
	})
	if calls != 1 {
		t.Errorf("Permutations(0) called fn %d times, want 1", calls)
	}
}

// Property: CDF.At is monotone nondecreasing and bounded in [0,1].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(sample []float64, probes []float64) bool {
		c := NewCDF(sample)
		sort.Float64s(probes)
		prev := 0.0
		for _, x := range probes {
			v := c.At(x)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}
