// Package mat provides small dense matrix and vector types used throughout
// the geo-distributed process-mapping library.
//
// The paper's formulation (Table 4 of Zhou et al., SC'17) is expressed in
// terms of four dense matrices — the communication volume matrix CG (N×N),
// the message-count matrix AG (N×N), and the inter/intra-site latency and
// bandwidth matrices LT and BT (M×M) — plus a handful of integer vectors.
// This package implements exactly the operations those structures need:
// construction, element access, row/column aggregation, symmetry checks,
// scaling, and a compact text serialization for tooling.
package mat

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty (0×0) matrix. Use New or From to build one.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a rows×cols matrix of zeros.
// It panics if either dimension is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		// Negative dimensions are a programmer error, mirroring make()
		// semantics; parsing paths (Read) validate before calling New.
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", rows, cols)) //geolint:ignore libpanic negative dims are a programmer error, like make() with negative len
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewSquare returns an n×n matrix of zeros.
func NewSquare(n int) *Matrix { return New(n, n) }

// From builds a matrix from a slice of rows. All rows must have equal length.
func From(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("mat: ragged input: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// MustFrom is like From but panics on ragged input. It is intended for
// package-level literals and tests.
func MustFrom(rows [][]float64) *Matrix {
	m, err := From(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// IsSquare reports whether the matrix is square.
func (m *Matrix) IsSquare() bool { return m.rows == m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		// At/Set/Add sit on the cost-evaluation hot path; bounds violations
		// are programmer bugs, reported like slice-index panics.
		//geolint:allocsite panic path: the message formats only on an out-of-range programmer error
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %d×%d matrix", i, j, m.rows, m.cols)) //geolint:ignore libpanic index bounds mirror built-in slice indexing on the cost hot path
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Scale multiplies every element by f in place.
func (m *Matrix) Scale(f float64) {
	for i := range m.data {
		m.data[i] *= f
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %d×%d matrix", i, m.rows, m.cols)) //geolint:ignore libpanic index bounds mirror built-in slice indexing
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowSum returns the sum of row i.
func (m *Matrix) RowSum(i int) float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %d×%d matrix", i, m.rows, m.cols)) //geolint:ignore libpanic index bounds mirror built-in slice indexing
	}
	var s float64
	for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
		s += v
	}
	return s
}

// ColSum returns the sum of column j.
func (m *Matrix) ColSum(j int) float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range for %d×%d matrix", j, m.rows, m.cols)) //geolint:ignore libpanic index bounds mirror built-in slice indexing
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+j]
	}
	return s
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// Max returns the maximum element. It returns 0 for an empty matrix.
func (m *Matrix) Max() float64 {
	if len(m.data) == 0 {
		return 0
	}
	max := m.data[0]
	for _, v := range m.data[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// MaxOffDiagonal returns the maximum element outside the main diagonal of a
// square matrix, together with its position. It returns (0, -1, -1, nil) if
// the matrix has no off-diagonal elements, and an error for a non-square
// matrix (which can arrive from user input via Read).
func (m *Matrix) MaxOffDiagonal() (v float64, row, col int, err error) {
	if !m.IsSquare() {
		return 0, -1, -1, fmt.Errorf("mat: MaxOffDiagonal requires a square matrix, have %d×%d", m.rows, m.cols)
	}
	row, col = -1, -1
	v = math.Inf(-1)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if i == j {
				continue
			}
			if e := m.data[i*m.cols+j]; e > v {
				v, row, col = e, i, j
			}
		}
	}
	if row == -1 {
		return 0, -1, -1, nil
	}
	return v, row, col, nil
}

// AddMatrix adds other to m in place. The matrices must have equal dimensions.
func (m *Matrix) AddMatrix(other *Matrix) error {
	if m.rows != other.rows || m.cols != other.cols {
		return fmt.Errorf("mat: dimension mismatch: %d×%d vs %d×%d", m.rows, m.cols, other.rows, other.cols)
	}
	for i := range m.data {
		m.data[i] += other.data[i]
	}
	return nil
}

// Symmetrize replaces m with (m + mᵀ)/2. It returns an error for a
// non-square matrix (which can arrive from user input via Read).
func (m *Matrix) Symmetrize() error {
	if !m.IsSquare() {
		return fmt.Errorf("mat: Symmetrize requires a square matrix, have %d×%d", m.rows, m.cols)
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			avg := (m.data[i*m.cols+j] + m.data[j*m.cols+i]) / 2
			m.data[i*m.cols+j] = avg
			m.data[j*m.cols+i] = avg
		}
	}
	return nil
}

// IsSymmetric reports whether a square matrix equals its transpose to within
// tol (absolute difference).
func (m *Matrix) IsSymmetric(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.data[i*m.cols+j]-m.data[j*m.cols+i]) > tol {
				return false
			}
		}
	}
	return true
}

// Equal reports whether m and other have the same shape and all elements are
// within tol of each other.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// String renders the matrix as whitespace-separated rows, one per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", m.data[i*m.cols+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteTo writes the matrix in a simple text format: a header line
// "rows cols" followed by one line per row of space-separated values.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintf(w, "%d %d\n", m.rows, m.cols)
	total += int64(n)
	if err != nil {
		return total, err
	}
	n, err = io.WriteString(w, m.String())
	total += int64(n)
	return total, err
}

// Read parses a matrix in the format produced by WriteTo.
func Read(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("mat: reading header: %w", err)
	}
	parts := strings.Fields(header)
	if len(parts) != 2 {
		return nil, errors.New("mat: malformed header, want \"rows cols\"")
	}
	rows, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("mat: bad row count %q: %w", parts[0], err)
	}
	cols, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("mat: bad column count %q: %w", parts[1], err)
	}
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("mat: negative dimensions %d×%d", rows, cols)
	}
	// The data grows row by row as the input supplies it: sizing it from
	// the header alone would let a one-line input such as "1 20000000000000"
	// demand terabytes before the first row is read.
	m := &Matrix{rows: rows, cols: cols}
	for i := 0; i < rows; i++ {
		line, err := br.ReadString('\n')
		if err != nil && !(errors.Is(err, io.EOF) && line != "") {
			return nil, fmt.Errorf("mat: reading row %d: %w", i, err)
		}
		fields := strings.Fields(line)
		if len(fields) != cols {
			return nil, fmt.Errorf("mat: row %d has %d values, want %d", i, len(fields), cols)
		}
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("mat: row %d col %d: %w", i, j, err)
			}
			m.data = append(m.data, v)
		}
	}
	return m, nil
}
