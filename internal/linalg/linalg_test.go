package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSymmetric(r *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func randomPSD(r *rand.Rand, n int) *Matrix {
	// A^T A is PSD for any A.
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	return transpose(a).Mul(a).Symmetrize()
}

// diag returns the square diagonal matrix with diagonal d.
func diag(d []float64) *Matrix {
	m := NewMatrix(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// transpose returns m's transpose as a new matrix.
func transpose(m *Matrix) *Matrix {
	r := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			r.Set(j, i, m.At(i, j))
		}
	}
	return r
}

func matApproxEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At mismatch")
	}
}

func TestMatrixMulIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randomSymmetric(r, 5)
	if !matApproxEqual(a.Mul(Identity(5)), a, 1e-12) {
		t.Error("A*I != A")
	}
	if !matApproxEqual(Identity(5).Mul(a), a, 1e-12) {
		t.Error("I*A != A")
	}
}

func TestMatrixMulKnown(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := a.Mul(a)
	want := [][]float64{{7, 10}, {15, 22}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if b.At(i, j) != want[i][j] {
				t.Errorf("(%d,%d) = %v, want %v", i, j, b.At(i, j), want[i][j])
			}
		}
	}
}

func TestShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 3)
	for _, fn := range []func(){
		func() { b.Mul(a) }, // 3x3 * 2x3
		func() { a.Trace() },
		func() { NewMatrix(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected shape panic")
				}
			}()
			fn()
		}()
	}
}

func TestEigSymReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(10)
		a := randomSymmetric(r, n)
		w, v, err := EigSym(a)
		if err != nil {
			t.Fatalf("EigSym: %v", err)
		}
		// Reconstruct V diag(w) V^T.
		rec := v.Mul(diag(w)).Mul(transpose(v))
		if !matApproxEqual(rec, a, 1e-8) {
			t.Fatalf("trial %d: reconstruction mismatch", trial)
		}
		// Eigenvectors orthonormal: V^T V = I.
		if !matApproxEqual(transpose(v).Mul(v), Identity(n), 1e-8) {
			t.Fatalf("trial %d: eigenvectors not orthonormal", trial)
		}
	}
}

func TestEigSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	w, _, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Min(w[0], w[1]), math.Max(w[0], w[1])
	if math.Abs(lo-1) > 1e-10 || math.Abs(hi-3) > 1e-10 {
		t.Errorf("eigenvalues = %v, want {1, 3}", w)
	}
}

func TestEigSymRejectsAsymmetric(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 1, 5)
	if _, _, err := EigSym(a); err != ErrNotSymmetric {
		t.Errorf("err = %v, want ErrNotSymmetric", err)
	}
	if _, _, err := EigSym(NewMatrix(2, 3)); err != ErrNotSymmetric {
		t.Errorf("non-square err = %v, want ErrNotSymmetric", err)
	}
}

func TestSqrtPSDSquares(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(8)
		a := randomPSD(r, n)
		s, err := SqrtPSD(a, 1e-8)
		if err != nil {
			t.Fatalf("SqrtPSD: %v", err)
		}
		if !matApproxEqual(s.Mul(s), a, 1e-7) {
			t.Fatalf("trial %d: sqrt(A)^2 != A", trial)
		}
		if !s.IsSymmetric(1e-9) {
			t.Fatalf("trial %d: sqrt not symmetric", trial)
		}
	}
}

func TestSqrtPSDIdentityAndDiag(t *testing.T) {
	s, err := SqrtPSD(Identity(4), 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !matApproxEqual(s, Identity(4), 1e-10) {
		t.Error("sqrt(I) != I")
	}
	d, err := SqrtPSD(diag([]float64{4, 9, 16}), 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !matApproxEqual(d, diag([]float64{2, 3, 4}), 1e-9) {
		t.Error("sqrt(diag) wrong")
	}
}

func TestSqrtPSDRejectsNegative(t *testing.T) {
	if _, err := SqrtPSD(diag([]float64{1, -1}), 1e-8); err == nil {
		t.Error("expected error for indefinite matrix")
	}
}

func TestTraceSqrtProductCommutingCase(t *testing.T) {
	// For diagonal matrices tr((AB)^{1/2}) = sum sqrt(a_i b_i).
	a := diag([]float64{1, 4, 9})
	b := diag([]float64{16, 25, 36})
	got, err := TraceSqrtProduct(a, b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(16.0) + math.Sqrt(100.0) + math.Sqrt(324.0)
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("TraceSqrtProduct = %v, want %v", got, want)
	}
}

func TestTraceSqrtProductSymmetryProperty(t *testing.T) {
	// tr((AB)^{1/2}) = tr((BA)^{1/2}) for PSD A, B.
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(6)
		a := randomPSD(r, n)
		b := randomPSD(r, n)
		x, err := TraceSqrtProduct(a, b, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		y, err := TraceSqrtProduct(b, a, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(x-y) > 1e-6*(1+math.Abs(x)) {
			t.Fatalf("trial %d: asymmetric: %v vs %v", trial, x, y)
		}
	}
}

func TestDot(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Dot length mismatch should panic")
			}
		}()
		Dot(a, []float64{1})
	}()
}

func TestEigenvaluePropertyTraceSum(t *testing.T) {
	// Sum of eigenvalues equals trace; product relates to determinant.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(uint(seed)%5)
		a := randomSymmetric(r, n)
		w, _, err := EigSym(a)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, x := range w {
			sum += x
		}
		return math.Abs(sum-a.Trace()) < 1e-8*(1+math.Abs(a.Trace()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
