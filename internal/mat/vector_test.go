package mat

import (
	"testing"
	"testing/quick"
)

func TestIntVecBasics(t *testing.T) {
	v := NewIntVec(4, 7)
	if len(v) != 4 {
		t.Fatalf("len = %d, want 4", len(v))
	}
	if v.Sum() != 28 {
		t.Errorf("Sum = %d, want 28", v.Sum())
	}
}

func TestIntVecCloneIsDeep(t *testing.T) {
	v := IntVec{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestIntVecHistogram(t *testing.T) {
	v := IntVec{0, 1, 1, 2, -1, 5}
	h := v.Histogram(3)
	want := []int{1, 2, 1}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("Histogram[%d] = %d, want %d", i, h[i], want[i])
		}
	}
}

func TestIntVecEqual(t *testing.T) {
	a := IntVec{1, 2}
	if !a.Equal(IntVec{1, 2}) {
		t.Error("equal vectors not Equal")
	}
	if a.Equal(IntVec{1}) || a.Equal(IntVec{1, 3}) {
		t.Error("unequal vectors reported Equal")
	}
}

// Property: histogram bucket counts sum to the number of in-range elements.
func TestQuickHistogramTotal(t *testing.T) {
	f := func(raw []uint8) bool {
		v := make(IntVec, len(raw))
		inRange := 0
		for i, r := range raw {
			v[i] = int(r%12) - 2 // values in [-2, 9]
			if v[i] >= 0 && v[i] < 8 {
				inRange++
			}
		}
		h := v.Histogram(8)
		total := 0
		for _, c := range h {
			total += c
		}
		return total == inRange
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
