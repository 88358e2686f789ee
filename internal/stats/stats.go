// Package stats provides the small statistical toolkit the evaluation
// harness needs: deterministic RNG construction, summary statistics
// (mean, standard deviation, trimmed mean, percentiles), empirical CDFs
// for the Monte Carlo figures, and permutation unranking for the group-order
// search in the mapping algorithm.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// NewRand returns a deterministic *rand.Rand seeded with seed. All
// randomness in the library flows through explicitly seeded generators so
// that experiments are reproducible run to run.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Scratch backs the allocation-free variants of the sorting-based
// estimators. The repeated consumers — the re-gauging drift detector
// smooths every site pair's sample window once per gauging pass, and the
// calibrator trims every probe batch — hold one Scratch and reuse its
// buffer across calls instead of copying the input per call. The zero
// value is ready; the buffer grows to the largest sample seen and is then
// reused, so steady-state calls do not allocate (Prewarm sizes it
// eagerly). A Scratch is not safe for concurrent use.
type Scratch struct {
	buf []float64
}

// Prewarm sizes the buffer for samples of up to n values so that even the
// first estimator call is allocation-free.
//
//geolint:allocsite cold path: one-time buffer sizing ahead of the measured calls
func (s *Scratch) Prewarm(n int) {
	if cap(s.buf) < n {
		s.buf = make([]float64, 0, n)
	}
}

// TrimmedMean returns the mean of xs after discarding the lowest and
// highest frac fraction of the sorted sample (rounded down), the standard
// outlier-robust estimator the calibrator uses to reject probe samples
// inflated by transient WAN faults. frac is clamped to [0, 0.5); with
// nothing left after trimming it returns the mean of the finite samples,
// and an empty slice returns 0. The sorted copy lives in the reusable
// buffer.
//
// Non-finite samples (NaN, ±Inf) are dropped before trimming: an estimator
// meant to reject outliers must not let a single poisoned sample turn the
// whole estimate into NaN — the re-gauging drift detector feeds it
// ratio-derived windows where a zero denominator upstream would otherwise
// propagate forever. An all-non-finite sample returns 0.
//
//geolint:allocfree
func (s *Scratch) TrimmedMean(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s.buf = s.buf[:0]
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			s.buf = append(s.buf, x)
		}
	}
	finite := s.buf
	if len(finite) == 0 {
		return 0
	}
	if frac < 0 {
		frac = 0
	}
	if frac >= 0.5 {
		frac = 0.5
	}
	cut := int(frac * float64(len(finite)))
	if 2*cut >= len(finite) {
		return Mean(finite)
	}
	sort.Float64s(finite)
	return Mean(finite[cut : len(finite)-cut])
}

// Percentile is the allocation-free variant of the package-level
// Percentile, with the same contract (and the same panics on an empty
// slice or out-of-domain p).
//
//geolint:allocfree
func (s *Scratch) Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice") //geolint:ignore libpanic documented contract: empty-sample percentile mirrors slice indexing
	}
	if p < 0 || p > 100 {
		//geolint:allocsite panic path: the message formats only on an out-of-domain programmer error
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p)) //geolint:ignore libpanic documented contract: out-of-domain p is a programmer error
	}
	s.buf = append(s.buf[:0], xs...)
	sorted := s.buf
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 for slices shorter than 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	min := math.Inf(1)
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice or a
// p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	s := Scratch{buf: make([]float64, 0, len(xs))}
	return s.Percentile(xs, p)
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from a sample. The input is copied.
func NewCDF(sample []float64) *CDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of the sample at or below x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want values <= x, so search for the first index strictly above x.
	n := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(n) / float64(len(c.sorted))
}

// FactorialInt returns n! as an int. It panics for n < 0 or n > 20 (21!
// overflows int64); callers that enumerate permutations bound n far below
// that anyway.
func FactorialInt(n int) int {
	if n < 0 || n > 20 {
		panic("stats: FactorialInt outside [0,20]") //geolint:ignore libpanic documented contract: out-of-range n is a programmer error
	}
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// Unrank writes into dst the permutation of src with the given
// lexicographic rank, decoded from the factorial number system: digit i
// of the rank picks among the elements not yet placed, kept in src order
// in dst[i:]. dst and src have the same length and do not overlap, and
// rank lies in [0, len(src)!). It allocates nothing, so the order search
// decodes each of its κ! orders in place.
func Unrank[T any](dst, src []T, rank int) {
	k := copy(dst, src)
	base := FactorialInt(k)
	for i := range k {
		base /= k - i // (k-1-i)!
		d := i + rank/base
		rank %= base
		x := dst[d]
		copy(dst[i+1:d+1], dst[i:d])
		dst[i] = x
	}
}
