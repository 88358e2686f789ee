package mat

import "fmt"

// IntVec is an integer vector, used for the capacity vector I (number of
// physical nodes per site), the constraint vector C (pinned site per process,
// -1 meaning unconstrained) and the placement vector P (site per process).
type IntVec []int

// NewIntVec returns a length-n vector filled with v.
func NewIntVec(n int, v int) IntVec {
	out := make(IntVec, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Clone returns a deep copy of the vector.
func (v IntVec) Clone() IntVec {
	out := make(IntVec, len(v))
	copy(out, v)
	return out
}

// Sum returns the sum of all elements.
func (v IntVec) Sum() int {
	s := 0
	for _, e := range v {
		s += e
	}
	return s
}

// Histogram returns counts[s] = number of elements equal to s, for
// 0 <= s < buckets. Elements outside [0, buckets) are ignored.
func (v IntVec) Histogram(buckets int) []int {
	counts := make([]int, buckets)
	for _, e := range v {
		if e >= 0 && e < buckets {
			counts[e]++
		}
	}
	return counts
}

// Equal reports whether v and other are element-wise equal.
func (v IntVec) Equal(other IntVec) bool {
	if len(v) != len(other) {
		return false
	}
	for i := range v {
		if v[i] != other[i] {
			return false
		}
	}
	return true
}

func (v IntVec) String() string { return fmt.Sprint([]int(v)) }
