package mat

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
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

func TestFillScale(t *testing.T) {
	m := New(2, 3)
	m.Fill(2)
	m.Scale(3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 6 {
				t.Fatalf("At(%d,%d) = %v, want 6", i, j, m.At(i, j))
			}
		}
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
	if got := m.Sum(); got != 21 {
		t.Errorf("Sum = %v, want 21", got)
	}
}

func TestMax(t *testing.T) {
	m := MustFrom([][]float64{{-5, -1}, {-3, -2}})
	if got := m.Max(); got != -1 {
		t.Errorf("Max = %v, want -1", got)
	}
	if got := New(0, 0).Max(); got != 0 {
		t.Errorf("empty Max = %v, want 0", got)
	}
}

func TestMaxOffDiagonal(t *testing.T) {
	m := MustFrom([][]float64{
		{100, 2, 3},
		{4, 100, 6},
		{7, 5, 100},
	})
	v, i, j, err := m.MaxOffDiagonal()
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 || i != 2 || j != 0 {
		t.Errorf("MaxOffDiagonal = (%v,%d,%d), want (7,2,0)", v, i, j)
	}
	one := NewSquare(1)
	if v, i, j, err := one.MaxOffDiagonal(); err != nil || v != 0 || i != -1 || j != -1 {
		t.Errorf("1×1 MaxOffDiagonal = (%v,%d,%d,%v), want (0,-1,-1,nil)", v, i, j, err)
	}
	if _, _, _, err := New(2, 3).MaxOffDiagonal(); err == nil {
		t.Error("MaxOffDiagonal on a 2×3 matrix: want error")
	}
}

func TestAddMatrix(t *testing.T) {
	a := MustFrom([][]float64{{1, 2}, {3, 4}})
	b := MustFrom([][]float64{{10, 20}, {30, 40}})
	if err := a.AddMatrix(b); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 1) != 44 {
		t.Errorf("At(1,1) = %v, want 44", a.At(1, 1))
	}
	if err := a.AddMatrix(New(3, 2)); err == nil {
		t.Error("dimension mismatch did not error")
	}
}

func TestSymmetrizeAndIsSymmetric(t *testing.T) {
	m := MustFrom([][]float64{{1, 4}, {2, 1}})
	if m.IsSymmetric(0) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if err := m.Symmetrize(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(1e-12) {
		t.Error("Symmetrize did not produce a symmetric matrix")
	}
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Errorf("symmetrized off-diagonal = %v/%v, want 3/3", m.At(0, 1), m.At(1, 0))
	}
	if err := New(2, 3).Symmetrize(); err == nil {
		t.Error("Symmetrize on a 2×3 matrix: want error")
	}
	if New(2, 3).IsSymmetric(0) {
		t.Error("non-square matrix reported symmetric")
	}
}

func TestTranspose(t *testing.T) {
	m := MustFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose is %d×%d, want 3×2", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", tr.At(2, 1))
	}
}

func TestEqual(t *testing.T) {
	a := MustFrom([][]float64{{1, 2}})
	b := MustFrom([][]float64{{1, 2.0000001}})
	if !a.Equal(b, 1e-3) {
		t.Error("near-equal matrices not Equal at tol 1e-3")
	}
	if a.Equal(b, 1e-9) {
		t.Error("matrices Equal at too-tight tolerance")
	}
	if a.Equal(New(2, 1), 1) {
		t.Error("different shapes reported Equal")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := MustFrom([][]float64{{1.5, -2}, {0, 1e9}})
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got, 0) {
		t.Errorf("round trip mismatch:\n%v\nvs\n%v", m, got)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"2\n",
		"a b\n",
		"2 a\n",
		"-1 2\n",
		"1 2\n1\n",
		"1 2\n1 x\n",
		"2 1\n1\n", // missing second row
		// Dimensions far beyond the input: the header alone once sized a
		// terabyte allocation and crashed the process.
		"1 20000000000000\n",
		"3037000500 3037000500\n1\n",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", c)
		}
	}
}

// Property: WriteTo/Read round-trips arbitrary matrices.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, rows, cols uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nr, nc := int(rows%8)+1, int(cols%8)+1
		m := New(nr, nc)
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				m.Set(i, j, math.Round(r.NormFloat64()*1e6)/1e3)
			}
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return m.Equal(got, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Symmetrize is idempotent and preserves the total sum.
func TestQuickSymmetrize(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		r := rand.New(rand.NewSource(seed))
		m := NewSquare(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.Float64()*100)
			}
		}
		before := m.Sum()
		if err := m.Symmetrize(); err != nil {
			return false
		}
		if !m.IsSymmetric(1e-9) {
			return false
		}
		if math.Abs(m.Sum()-before) > 1e-6 {
			return false
		}
		again := m.Clone()
		if err := again.Symmetrize(); err != nil {
			return false
		}
		return again.Equal(m, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: transpose twice is the identity.
func TestQuickTransposeTwice(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		nr, nc := int(rRaw%6)+1, int(cRaw%6)+1
		rng := rand.New(rand.NewSource(seed))
		m := New(nr, nc)
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				m.Set(i, j, rng.Float64())
			}
		}
		return m.Transpose().Transpose().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
