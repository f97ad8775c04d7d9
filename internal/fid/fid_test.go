package fid

import (
	"math"
	"testing"

	"diffserve/internal/imagespace"
	"diffserve/internal/linalg"
	"diffserve/internal/stats"
)

func TestFrechetIdenticalIsZero(t *testing.T) {
	mu := []float64{1, 2, 3}
	s := diag([]float64{1, 2, 3})
	got, err := Frechet(mu, s, mu, s)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("FID(same, same) = %v, want 0", got)
	}
}

func TestFrechetMeanShiftOnly(t *testing.T) {
	s := linalg.Identity(4)
	got, err := Frechet([]float64{0, 0, 0, 0}, s, []float64{3, 4, 0, 0}, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-25) > 1e-9 {
		t.Errorf("FID = %v, want 25", got)
	}
}

func TestFrechetCovarianceOnly(t *testing.T) {
	mu := []float64{0, 0}
	s1 := diag([]float64{1, 1})
	s2 := diag([]float64{4, 9})
	// Diagonal case: sum (sqrt(a)-sqrt(b))^2 = (1-2)^2 + (1-3)^2 = 5.
	got, err := Frechet(mu, s1, mu, s2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5) > 1e-8 {
		t.Errorf("FID = %v, want 5", got)
	}
}

func TestFrechetSymmetry(t *testing.T) {
	rng := stats.NewRNG(5)
	dim := 6
	mu1 := rng.NormalVec(nil, dim, 0, 1)
	mu2 := rng.NormalVec(nil, dim, 1, 1)
	s1 := randomPSD(rng, dim)
	s2 := randomPSD(rng, dim)
	a, err := Frechet(mu1, s1, mu2, s2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Frechet(mu2, s2, mu1, s1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-7*(1+a) {
		t.Errorf("FID asymmetric: %v vs %v", a, b)
	}
	if a < 0 {
		t.Errorf("FID negative: %v", a)
	}
}

func randomPSD(rng *stats.RNG, n int) *linalg.Matrix {
	a := linalg.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.Normal(0, 1)
	}
	at := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	return at.Mul(a).Symmetrize()
}

// diag returns the square diagonal matrix with diagonal d.
func diag(d []float64) *linalg.Matrix {
	m := linalg.NewMatrix(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

func TestFrechetShapeErrors(t *testing.T) {
	s := linalg.Identity(2)
	if _, err := Frechet([]float64{0, 0}, s, []float64{0}, s); err == nil {
		t.Error("expected mean-dim error")
	}
	if _, err := Frechet([]float64{0, 0, 0}, s, []float64{0, 0, 0}, s); err == nil {
		t.Error("expected covariance shape error")
	}
}

func TestBetweenEmpiricalRecoversPopulation(t *testing.T) {
	// Two samples of the same Gaussian should have small FID; samples
	// of different Gaussians should have FID near the analytic value.
	rng := stats.NewRNG(7)
	dim := 8
	n := 4000
	sample := func(mu float64, stream string) [][]float64 {
		r := rng.Stream(stream)
		out := make([][]float64, n)
		for i := range out {
			out[i] = r.NormalVec(nil, dim, mu, 1)
		}
		return out
	}
	same, err := Between(sample(0, "a"), sample(0, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if same > 0.3 {
		t.Errorf("FID between same-distribution samples = %v, want near 0", same)
	}
	shifted, err := Between(sample(1, "c"), sample(0, "d"))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(dim) // ||1-vector||^2 = dim
	if math.Abs(shifted-want) > 0.8 {
		t.Errorf("FID between shifted samples = %v, want ~%v", shifted, want)
	}
}

func TestReferenceScore(t *testing.T) {
	rng := stats.NewRNG(8)
	dim := 4
	ref := ExactReference(dim)
	if len(ref.Mu) != dim || ref.Sigma.Rows != dim {
		t.Fatal("ExactReference wrong shape")
	}
	gen := make([][]float64, 2000)
	for i := range gen {
		gen[i] = rng.NormalVec(nil, dim, 0, 1)
	}
	score, err := ref.Score(gen)
	if err != nil {
		t.Fatal(err)
	}
	if score > 0.2 {
		t.Errorf("N(0,I) sample vs exact reference FID = %v, want near 0", score)
	}
}

func TestNewReferenceMatchesBetween(t *testing.T) {
	rng := stats.NewRNG(9)
	dim := 3
	mk := func(stream string) [][]float64 {
		r := rng.Stream(stream)
		out := make([][]float64, 500)
		for i := range out {
			out[i] = r.NormalVec(nil, dim, 0, 1)
		}
		return out
	}
	real, gen := mk("real"), mk("gen")
	ref, err := NewReference(real)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ref.Score(gen)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Between(gen, real)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("Reference.Score %v != Between %v", a, b)
	}
}

func TestFIDTriangleLikeSanity(t *testing.T) {
	// Moving a distribution farther from the reference must not
	// decrease FID (monotone in pure mean shift).
	ref := ExactReference(4)
	s := linalg.Identity(4)
	prev := -1.0
	for shift := 0.0; shift <= 5; shift += 0.5 {
		mu := []float64{shift, 0, 0, 0}
		v, err := Frechet(mu, s, ref.Mu, ref.Sigma)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("FID not monotone in mean shift at %v: %v < %v", shift, v, prev)
		}
		prev = v
	}
}

var benchSink float64

func BenchmarkFrechetExact16(b *testing.B) {
	rng := stats.NewRNG(10)
	dim := 16
	mu1 := rng.NormalVec(nil, dim, 0, 1)
	mu2 := rng.NormalVec(nil, dim, 0.5, 1)
	s1 := randomPSD(rng, dim)
	s2 := randomPSD(rng, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := Frechet(mu1, s1, mu2, s2)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}

// Guard against accidental import cycles breaking moments reuse.
var _ = imagespace.Moments
