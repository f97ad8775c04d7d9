package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	root := NewRNG(7)
	s1 := root.Stream("alpha")
	s2 := root.Stream("beta")
	if s1.Seed() == s2.Seed() {
		t.Fatal("distinct stream names produced identical seeds")
	}
	// Same name must reproduce the same stream regardless of how much
	// the sibling stream was consumed.
	s1.Float64()
	s1.Float64()
	again := NewRNG(7).Stream("beta")
	for i := 0; i < 10; i++ {
		if s2.Float64() != again.Float64() {
			t.Fatalf("stream %q not reproducible at draw %d", "beta", i)
		}
	}
}

func TestRNGStreamN(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := StreamNSeedFrom(11, "query", i)
		if seen[s] {
			t.Fatalf("duplicate seed for index %d", i)
		}
		seen[s] = true
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(1)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.Normal(3, 2))
	}
	if math.Abs(w.Mean()-3) > 0.05 {
		t.Errorf("normal mean = %.4f, want ~3", w.Mean())
	}
	if math.Abs(w.Std()-2) > 0.05 {
		t.Errorf("normal std = %.4f, want ~2", w.Std())
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(2)
	var w Welford
	rate := 4.0
	for i := 0; i < 200000; i++ {
		w.Add(r.Exponential(rate))
	}
	if math.Abs(w.Mean()-1/rate) > 0.01 {
		t.Errorf("exponential mean = %.4f, want ~%.4f", w.Mean(), 1/rate)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate <= 0")
		}
	}()
	NewRNG(3).Exponential(0)
}

func TestGammaMoments(t *testing.T) {
	r := NewRNG(4)
	shape, scale := 2.5, 1.5
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.Gamma(shape, scale))
	}
	wantMean := shape * scale
	wantVar := shape * scale * scale
	if math.Abs(w.Mean()-wantMean) > 0.05 {
		t.Errorf("gamma mean = %.4f, want ~%.4f", w.Mean(), wantMean)
	}
	if math.Abs(w.Variance()-wantVar) > 0.2 {
		t.Errorf("gamma var = %.4f, want ~%.4f", w.Variance(), wantVar)
	}
}

func TestGammaSmallShape(t *testing.T) {
	r := NewRNG(5)
	var w Welford
	for i := 0; i < 100000; i++ {
		x := r.Gamma(0.5, 2)
		if x < 0 {
			t.Fatal("gamma sample negative")
		}
		w.Add(x)
	}
	if math.Abs(w.Mean()-1.0) > 0.05 {
		t.Errorf("gamma(0.5,2) mean = %.4f, want ~1", w.Mean())
	}
}

func TestBetaRangeAndMean(t *testing.T) {
	r := NewRNG(6)
	a, b := 2.0, 5.0
	var w Welford
	for i := 0; i < 100000; i++ {
		x := r.Beta(a, b)
		if x < 0 || x > 1 {
			t.Fatalf("beta sample %v out of [0,1]", x)
		}
		w.Add(x)
	}
	want := a / (a + b)
	if math.Abs(w.Mean()-want) > 0.01 {
		t.Errorf("beta mean = %.4f, want ~%.4f", w.Mean(), want)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(7)
	for _, mean := range []float64{0.5, 3, 20, 100} {
		var w Welford
		for i := 0; i < 50000; i++ {
			w.Add(float64(r.Poisson(mean)))
		}
		if math.Abs(w.Mean()-mean) > 0.05*mean+0.05 {
			t.Errorf("poisson(%v) mean = %.4f", mean, w.Mean())
		}
	}
}

func TestPoissonZero(t *testing.T) {
	r := NewRNG(8)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
}

func TestBernoulliProbability(t *testing.T) {
	r := NewRNG(9)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("bernoulli rate = %.4f, want ~0.3", p)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(10)
	cfg := &quick.Config{MaxCount: 200}
	f := func(loRaw, spanRaw uint16) bool {
		lo := float64(loRaw) / 100
		hi := lo + float64(spanRaw)/100 + 0.01
		x := r.Uniform(lo, hi)
		return x >= lo && x < hi
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNormalVec(t *testing.T) {
	r := NewRNG(11)
	v := r.NormalVec(nil, 8, 1, 0)
	if len(v) != 8 {
		t.Fatalf("len = %d, want 8", len(v))
	}
	for _, x := range v {
		if x != 1 {
			t.Errorf("sigma=0 sample = %v, want exactly mu", x)
		}
	}
	dst := make([]float64, 4)
	got := r.NormalVec(dst, 0, 0, 1)
	if &got[0] != &dst[0] {
		t.Error("NormalVec did not reuse provided destination")
	}
}
