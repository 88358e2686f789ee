package mat

import (
	"testing"
)

func TestNewDimensions(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %d×%d, want 3×4", m.Rows(), m.Cols())
	}
	if m.IsSquare() {
		t.Error("3×4 matrix reported square")
	}
	if !NewSquare(5).IsSquare() {
		t.Error("NewSquare(5) not square")
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestSetAtAdd(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 3.5)
	if got := m.At(0, 1); got != 3.5 {
		t.Errorf("At(0,1) = %v, want 3.5", got)
	}
	m.Add(0, 1, 1.5)
	if got := m.At(0, 1); got != 5 {
		t.Errorf("after Add, At(0,1) = %v, want 5", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("untouched element = %v, want 0", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestFrom(t *testing.T) {
	m, err := From([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := From([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged From did not error")
	}
	if m, err := From(nil); err != nil || m.Rows() != 0 {
		t.Errorf("From(nil) = %v, %v; want empty matrix", m, err)
	}
}

func TestMustFromPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFrom(ragged) did not panic")
		}
	}()
	MustFrom([][]float64{{1}, {2, 3}})
}

func TestCloneIsDeep(t *testing.T) {
	m := MustFrom([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestRowAndSums(t *testing.T) {
	m := MustFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Errorf("Row(1) = %v", row)
	}
	row[0] = 100
	if m.At(1, 0) != 4 {
		t.Error("Row returned a view, want a copy")
	}
	if got := m.RowSum(0); got != 6 {
		t.Errorf("RowSum(0) = %v, want 6", got)
	}
	if got := m.ColSum(2); got != 9 {
		t.Errorf("ColSum(2) = %v, want 9", got)
	}
}
