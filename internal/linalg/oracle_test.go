package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rankDeficientPSD returns A^T A for a random rank×n matrix A: an n×n
// PSD matrix of rank at most rank, whose zero eigenvalues come out of
// Jacobi as tiny values of either sign.
func rankDeficientPSD(r *rand.Rand, n, rank int) *Matrix {
	a := NewMatrix(rank, n)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	return transpose(a).Mul(a).Symmetrize()
}

// oracleCases returns the seeded matrices of dimension 1–24 the
// bit-identity tests run on: random PSD, rank-deficient PSD, diagonal
// (some entries zero) and random symmetric indefinite.
func oracleCases() map[string]*Matrix {
	r := rand.New(rand.NewSource(42))
	cases := map[string]*Matrix{}
	for n := 1; n <= 24; n++ {
		cases[fmt.Sprintf("psd/%d", n)] = randomPSD(r, n)
		cases[fmt.Sprintf("rank/%d", n)] = rankDeficientPSD(r, n, 1+n/3)
		d := make([]float64, n)
		for i := range d {
			if r.Intn(4) > 0 {
				d[i] = r.ExpFloat64()
			}
		}
		cases[fmt.Sprintf("diag/%d", n)] = diag(d)
		cases[fmt.Sprintf("sym/%d", n)] = randomSymmetric(r, n)
	}
	return cases
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEigSymMatchesOracle holds EigSym to the pre-row-slice Jacobi
// bit for bit: the same eigenvalues and eigenvectors, or the same error.
func TestEigSymMatchesOracle(t *testing.T) {
	for name, a := range oracleCases() {
		w, v, err := EigSym(a)
		ow, ov, oerr := oracleEigSym(a)
		if err != oerr {
			t.Fatalf("%s: err %v, oracle %v", name, err, oerr)
		}
		if err != nil {
			continue
		}
		if !sameBits(w, ow) {
			t.Errorf("%s: eigenvalues %v, oracle %v", name, w, ow)
		}
		if !sameBits(v.Data, ov.Data) {
			t.Errorf("%s: eigenvectors differ from the oracle", name)
		}
		vw, nv, err := eigSym(a, false)
		if err != nil || nv != nil || !sameBits(vw, ow) {
			t.Errorf("%s: values-only eigenvalues %v (v %v, err %v), oracle %v", name, vw, nv, err, ow)
		}
	}
}

// TestSqrtPSDMatchesOracle holds SqrtPSD to the one that took sqrt(w[k])
// n² times, bit for bit.
func TestSqrtPSDMatchesOracle(t *testing.T) {
	for name, a := range oracleCases() {
		got, err := SqrtPSD(a, 1e-6)
		want, oerr := oracleSqrtPSD(a, 1e-6)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("%s: err %v, oracle %v", name, err, oerr)
		}
		if err != nil {
			continue
		}
		if !sameBits(got.Data, want.Data) {
			t.Errorf("%s: square root differs from the oracle", name)
		}
	}
}

// TestTraceSqrtProductMatchesOracle holds TraceSqrtProduct, whose second
// decomposition no longer accumulates eigenvectors, to the oracle's trace
// bit for bit on every ordered pair of same-size PSD cases.
func TestTraceSqrtProductMatchesOracle(t *testing.T) {
	cases := oracleCases()
	for n := 1; n <= 24; n++ {
		for _, ka := range []string{"psd", "rank", "diag"} {
			for _, kb := range []string{"psd", "rank", "diag"} {
				a, b := cases[fmt.Sprintf("%s/%d", ka, n)], cases[fmt.Sprintf("%s/%d", kb, n)]
				got, err := TraceSqrtProduct(a, b, 1e-6)
				want, oerr := oracleTraceSqrtProduct(a, b, 1e-6)
				if (err == nil) != (oerr == nil) {
					t.Fatalf("%s×%s/%d: err %v, oracle %v", ka, kb, n, err, oerr)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s×%s/%d: trace %v, oracle %v", ka, kb, n, got, want)
				}
			}
		}
	}
}

// TestMulMatchesOracle holds the row-slice Mul to the At-based one.
func TestMulMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 1; n <= 24; n++ {
		a, b := randomSymmetric(r, n), randomPSD(r, n)
		a.Data[r.Intn(len(a.Data))] = 0 // exercise the zero skip
		if !sameBits(a.Mul(b).Data, oracleMul(a, b).Data) {
			t.Errorf("n=%d: Mul differs from the oracle", n)
		}
	}
	a, b := NewMatrix(3, 5), NewMatrix(5, 2)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	if !sameBits(a.Mul(b).Data, oracleMul(a, b).Data) {
		t.Error("3x5 * 5x2: Mul differs from the oracle")
	}
}

// BenchmarkTraceSqrtProduct16 times the Fréchet cross term at the
// feature space's 16 dimensions: what each scored timeline bucket pays.
func BenchmarkTraceSqrtProduct16(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randomPSD(r, 16), randomPSD(r, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TraceSqrtProduct(x, y, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}
