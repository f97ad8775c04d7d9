package linalg

import (
	"errors"
	"fmt"
	"math"
)

// The functions below are EigSym, SqrtPSD, TraceSqrtProduct and Mul as
// they were before the Jacobi core lost its At/Set calls and learned to
// skip eigenvectors, kept verbatim as the oracle the bit-identity tests
// in oracle_test.go hold the current ones to.

// oracleEigSym computes the eigendecomposition of a symmetric matrix using
// the cyclic Jacobi rotation method. It returns the eigenvalues and a
// matrix whose columns are the corresponding orthonormal eigenvectors,
// so that a = v * diag(w) * v^T.
//
// The input must be symmetric within a small tolerance; otherwise
// ErrNotSymmetric is returned. Jacobi iteration is unconditionally
// stable for symmetric matrices; ErrNotConverged indicates a pathological
// input (e.g. NaNs).
func oracleEigSym(a *Matrix) (w []float64, v *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, ErrNotSymmetric
	}
	n := a.Rows
	scale := 0.0
	for _, x := range a.Data {
		if ax := math.Abs(x); ax > scale {
			scale = ax
		}
	}
	if !a.IsSymmetric(1e-8*math.Max(scale, 1) + 1e-12) {
		return nil, nil, ErrNotSymmetric
	}

	m := a.Symmetrize()
	v = Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Sum of absolute off-diagonal values: the convergence measure.
		off := 0.0
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				off += math.Abs(m.At(i, j))
			}
		}
		if off == 0 {
			w = make([]float64, n)
			for i := 0; i < n; i++ {
				w[i] = m.At(i, i)
			}
			return w, v, nil
		}
		// Rotation threshold: skip small elements during early sweeps
		// (Numerical Recipes style), then rotate everything.
		var thresh float64
		if sweep < 3 {
			thresh = 0.2 * off / float64(n*n)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				app := m.At(p, p)
				aqq := m.At(q, q)
				// After a few sweeps, annihilate elements that are
				// negligible relative to their diagonal neighbors.
				small := 1e-13 * (math.Abs(app) + math.Abs(aqq))
				if sweep >= 3 && math.Abs(apq) <= small {
					m.Set(p, q, 0)
					m.Set(q, p, 0)
					continue
				}
				if math.Abs(apq) <= thresh {
					continue
				}
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Apply the rotation G(p, q, theta) on both sides.
				for k := 0; k < n; k++ {
					akp := m.At(k, p)
					akq := m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk := m.At(p, k)
					aqk := m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate the eigenvector rotation.
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	return nil, nil, ErrNotConverged
}

// oracleSqrtPSD computes the principal square root of a symmetric positive
// semi-definite matrix via eigendecomposition: if a = V diag(w) V^T
// then sqrt(a) = V diag(sqrt(w)) V^T. Small negative eigenvalues
// (within -tol, from floating-point noise) are clamped to zero; larger
// negative eigenvalues cause an error.
func oracleSqrtPSD(a *Matrix, tol float64) (*Matrix, error) {
	w, v, err := oracleEigSym(a)
	if err != nil {
		return nil, err
	}
	for i, x := range w {
		if x < 0 {
			if x < -tol {
				return nil, errors.New("linalg: matrix is not positive semi-definite")
			}
			w[i] = 0
		}
	}
	n := a.Rows
	r := NewMatrix(n, n)
	// r = V diag(sqrt(w)) V^T
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += v.At(i, k) * math.Sqrt(w[k]) * v.At(j, k)
			}
			r.Set(i, j, s)
			r.Set(j, i, s)
		}
	}
	return r, nil
}

// oracleTraceSqrtProduct computes tr((A B)^{1/2}) for symmetric PSD matrices
// A and B, the cross term of the Fréchet distance. It uses the
// similarity trick: the eigenvalues of A·B equal the eigenvalues of the
// symmetric matrix sqrt(A)·B·sqrt(A), which is PSD, so the trace of the
// square root is the sum of square roots of those eigenvalues.
func oracleTraceSqrtProduct(a, b *Matrix, tol float64) (float64, error) {
	sa, err := oracleSqrtPSD(a, tol)
	if err != nil {
		return 0, err
	}
	m := oracleMul(oracleMul(sa, b), sa).Symmetrize()
	w, _, err := oracleEigSym(m)
	if err != nil {
		return 0, err
	}
	t := 0.0
	for _, x := range w {
		if x < 0 {
			if x < -tol {
				return 0, errors.New("linalg: product has negative eigenvalue")
			}
			x = 0
		}
		t += math.Sqrt(x)
	}
	return t, nil
}

// oracleMul returns the matrix product m*o as a new matrix.
// It panics if the inner dimensions disagree.
func oracleMul(m, o *Matrix) *Matrix {
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
