package units

import (
	"math"
	"testing"
)

// TestHelpersBitIdentical pins the contract the refactor from raw float64
// rests on: every helper performs exactly the floating-point operation its
// doc states, so code moved onto the typed API produces bit-identical
// results.
func TestHelpersBitIdentical(t *testing.T) {
	vals := []float64{0, 1, 0.25, 3.5e-9, 1.7e12, math.Pi, 5.4e6}
	for _, a := range vals {
		for _, b := range vals {
			if b != 0 {
				if got, want := Bytes(a).Over(BytesPerSec(b)).Float(), a/b; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("Bytes(%g).Over(%g) = %g, want %g", a, b, got, want)
				}
				if got, want := BytesPerSec(a).Div(b).Float(), a/b; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("BytesPerSec(%g).Div(%g) = %g, want %g", a, b, got, want)
				}
			}
			prod := a * b
			for name, got := range map[string]float64{
				"Seconds.Scale":     Seconds(a).Scale(b).Float(),
				"Bytes.Scale":       Bytes(a).Scale(b).Float(),
				"BytesPerSec.Scale": BytesPerSec(a).Scale(b).Float(),
				"Cost.Scale":        Cost(a).Scale(b).Float(),
				"BytesPerSec.Times": BytesPerSec(a).Times(Seconds(b)).Float(),
			} {
				if math.Float64bits(got) != math.Float64bits(prod) {
					t.Errorf("%s(%g, %g) = %g, want %g", name, a, b, got, prod)
				}
			}
		}
	}
}

// TestCostBridging covers the Seconds↔Cost reinterpretations.
func TestCostBridging(t *testing.T) {
	s := Seconds(1.75)
	if got := s.AsCost(); got.Float() != 1.75 {
		t.Errorf("AsCost = %v", got)
	}
	c := Cost(2.5)
	if got := c.AsSeconds(); got.Float() != 2.5 {
		t.Errorf("AsSeconds = %v", got)
	}
}
