// Package mat provides small dense matrix and vector types used throughout
// the geo-distributed process-mapping library.
//
// The paper's formulation (Table 4 of Zhou et al., SC'17) is expressed in
// terms of four dense matrices — the communication volume matrix CG (N×N),
// the message-count matrix AG (N×N), and the inter/intra-site latency and
// bandwidth matrices LT and BT (M×M) — plus a handful of integer vectors.
// This package implements exactly the operations those structures need:
// construction, element access, and row/column aggregation.
package mat

import (
	"fmt"
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
		// semantics.
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
//
//geolint:ignore deadcode fixture constructor that the tests of six packages call
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
