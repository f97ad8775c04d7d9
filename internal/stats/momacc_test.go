package stats

import (
	"math"
	"testing"
)

// oracleAdd is MomentAccumulator.Add as it was when it recomputed
// x[j] - mean[j] for every (i, j) of the upper triangle, kept verbatim
// as the oracle TestMomentAddMatchesOracle holds the one-pass Add to.
func oracleAdd(m *MomentAccumulator, x []float64) {
	m.n++
	inv := 1 / float64(m.n)
	for i, v := range x {
		m.dx[i] = v - m.mean[i]
		m.mean[i] += m.dx[i] * inv
	}
	k := 0
	for i := 0; i < m.dim; i++ {
		di := m.dx[i]
		for j := i; j < m.dim; j++ {
			m.comoment[k] += di * (x[j] - m.mean[j])
			k++
		}
	}
}

func sameFloatBits(a, b []float64) bool {
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

// TestMomentAddMatchesOracle feeds one seeded stream of 10 000
// observations to Add and to the two-pass oracle and requires the
// same count, mean and co-moments, bit for bit, at every dimension
// from 1 to 24 (the feature space uses 16).
func TestMomentAddMatchesOracle(t *testing.T) {
	for dim := 1; dim <= 24; dim++ {
		rng := NewRNG(uint64(dim))
		got, want := NewMomentAccumulator(dim), NewMomentAccumulator(dim)
		x := make([]float64, dim)
		for n := 0; n < 10000; n++ {
			for j := range x {
				// Shifted off zero, with a scale that cycles, so the
				// mean moves and the rounding of x - mean matters.
				x[j] = rng.Normal(3*float64(j), 1+float64(n%7))
			}
			got.Add(x)
			oracleAdd(want, x)
		}
		if got.Count() != want.Count() {
			t.Fatalf("dim %d: count %d, oracle %d", dim, got.Count(), want.Count())
		}
		if !sameFloatBits(got.mean, want.mean) {
			t.Errorf("dim %d: mean differs from the oracle", dim)
		}
		if !sameFloatBits(got.comoment, want.comoment) {
			t.Errorf("dim %d: co-moments differ from the oracle", dim)
		}
	}
}

// BenchmarkMomentAdd16 times one Add of a 16-dim observation, what
// the metrics collector pays twice per served query (run and bucket).
func BenchmarkMomentAdd16(b *testing.B) {
	rng := NewRNG(1)
	xs := make([][]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormalVec(nil, 16, 0, 1)
	}
	acc := NewMomentAccumulator(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(xs[i%len(xs)])
	}
}
