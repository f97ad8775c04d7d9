// Package linalg provides the small dense linear-algebra kernel needed
// for exact Fréchet Inception Distance computation: symmetric matrices,
// Jacobi eigendecomposition, and principal square roots of positive
// semi-definite matrices.
//
// Matrices are dense, row-major, and small (the image feature space is
// 16–64 dimensional), so simple O(n^3) algorithms are both adequate and
// easy to verify.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
// It panics if rows or cols is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("linalg: matrix dimensions must be positive")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Mul returns the matrix product m*o as a new matrix.
// It panics if the inner dimensions disagree.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch (%dx%d)*(%dx%d)", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	r := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.Cols; j++ {
				r.Data[i*r.Cols+j] += a * o.At(k, j)
			}
		}
	}
	return r
}

// Trace returns the sum of diagonal elements.
// It panics if the matrix is not square.
func (m *Matrix) Trace() float64 {
	m.mustSquare()
	t := 0.0
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// Symmetrize returns (m + m^T)/2, useful for cleaning accumulated
// floating-point asymmetry in covariance computations.
func (m *Matrix) Symmetrize() *Matrix {
	m.mustSquare()
	r := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			r.Set(i, j, 0.5*(m.At(i, j)+m.At(j, i)))
		}
	}
	return r
}

// IsSymmetric reports whether m is symmetric within tolerance tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

func (m *Matrix) mustSquare() {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: matrix not square (%dx%d)", m.Rows, m.Cols))
	}
}

// Dot returns the inner product of two equal-length vectors.
// It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
