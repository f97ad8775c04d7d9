package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordMatchesNaive(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 100, -7}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	v /= float64(len(xs) - 1)
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Errorf("mean = %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-v) > 1e-9 {
		t.Errorf("var = %v, want %v", w.Variance(), v)
	}
}

func TestWelfordMergeEquivalence(t *testing.T) {
	f := func(a, b []float64) bool {
		var all, left, right Welford
		for _, x := range a {
			clamped := math.Mod(x, 1000)
			if math.IsNaN(clamped) {
				clamped = 0
			}
			all.Add(clamped)
			left.Add(clamped)
		}
		for _, x := range b {
			clamped := math.Mod(x, 1000)
			if math.IsNaN(clamped) {
				clamped = 0
			}
			all.Add(clamped)
			right.Add(clamped)
		}
		left.Merge(right)
		if left.Count() != all.Count() {
			return false
		}
		if all.Count() == 0 {
			return true
		}
		return math.Abs(left.Mean()-all.Mean()) < 1e-6 &&
			math.Abs(left.PopVariance()-all.PopVariance()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Std() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
}

func TestEWMAFirstObservation(t *testing.T) {
	e := NewEWMA(0.3)
	if e.init {
		t.Error("fresh EWMA reports initialized")
	}
	if got := e.Add(10); got != 10 {
		t.Errorf("first Add = %v, want 10", got)
	}
	got := e.Add(20)
	want := 0.3*20 + 0.7*10
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("second Add = %v, want %v", got, want)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Add(5)
	}
	if math.Abs(e.value-5) > 1e-9 {
		t.Errorf("EWMA of constant = %v, want 5", e.value)
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha=%v: expected panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) should be NaN")
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.25); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("interpolated quantile = %v, want 2.5", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{2, -1, 7}
	if Mean(xs) != 8.0/3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty-slice aggregates should be NaN")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CDF.At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if len(c.sorted) != 4 {
		t.Errorf("Len = %d", len(c.sorted))
	}
}

func TestCDFMonotone(t *testing.T) {
	r := NewRNG(99)
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = r.Normal(0, 1)
	}
	c := NewCDF(samples)
	prev := -1.0
	for x := -4.0; x <= 4.0; x += 0.05 {
		p := c.At(x)
		if p < prev-1e-12 {
			t.Fatalf("CDF not monotone at x=%v: %v < %v", x, p, prev)
		}
		prev = p
	}
}
