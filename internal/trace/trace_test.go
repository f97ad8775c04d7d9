package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"diffserve/internal/stats"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, []float64{1}); err == nil {
		t.Error("zero interval should fail")
	}
	if _, err := New(1, nil); err == nil {
		t.Error("empty rates should fail")
	}
	if _, err := New(1, []float64{-1}); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := New(1, []float64{math.NaN()}); err == nil {
		t.Error("NaN rate should fail")
	}
	tr, err := New(1, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Input slice must be copied.
	in := []float64{5}
	tr2, _ := New(1, in)
	in[0] = 99
	if tr2.Rates[0] == 99 {
		t.Error("New aliases caller's slice")
	}
	_ = tr
}

func TestStatic(t *testing.T) {
	tr, err := Static(10, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration() != 60 {
		t.Errorf("duration = %v", tr.Duration())
	}
	if tr.MeanRate() != 10 || tr.PeakRate() != 10 || tr.MinRate() != 10 {
		t.Error("static trace rates wrong")
	}
	if _, err := Static(1, 0, 1); err == nil {
		t.Error("zero duration should fail")
	}
}

func TestRateAtBounds(t *testing.T) {
	tr, _ := New(1, []float64{2, 4, 6})
	if tr.RateAt(-1) != 2 {
		t.Error("negative time should return first rate")
	}
	if tr.RateAt(100) != 6 {
		t.Error("time past end should return last rate")
	}
	if tr.RateAt(1.5) != 4 {
		t.Error("mid-interval lookup wrong")
	}
}

func TestScaleToRange(t *testing.T) {
	tr, _ := New(1, []float64{0, 5, 10})
	s, err := tr.ScaleTo(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if s.MinRate() != 4 || s.PeakRate() != 32 {
		t.Errorf("scaled range = [%v, %v], want [4, 32]", s.MinRate(), s.PeakRate())
	}
	// Midpoint maps to midpoint: shape preservation.
	if math.Abs(s.Rates[1]-18) > 1e-12 {
		t.Errorf("midpoint = %v, want 18", s.Rates[1])
	}
	if _, err := tr.ScaleTo(10, 5); err == nil {
		t.Error("min > max should fail")
	}
	if _, err := tr.ScaleTo(-1, 5); err == nil {
		t.Error("negative min should fail")
	}
}

func TestScaleToConstantTrace(t *testing.T) {
	tr, _ := Static(7, 10, 1)
	s, err := tr.ScaleTo(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Rates {
		if r != 32 {
			t.Fatalf("constant trace should scale to max, got %v", r)
		}
	}
}

func TestScaleToShapePreservationProperty(t *testing.T) {
	// Affine scaling preserves the ordering of rates.
	rng := stats.NewRNG(1)
	tr, err := AzureLike(rng, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tr.ScaleTo(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw) % len(tr.Rates)
		b := int(bRaw) % len(tr.Rates)
		if tr.Rates[a] < tr.Rates[b] {
			return s.Rates[a] <= s.Rates[b]+1e-9
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestAzureLikeShape(t *testing.T) {
	rng := stats.NewRNG(2)
	tr, err := AzureLike(rng, 360, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rates) != 360 {
		t.Fatalf("len = %d", len(tr.Rates))
	}
	// The peak should land mid-trace (diurnal single cycle).
	peakIdx := 0
	for i, r := range tr.Rates {
		if r > tr.Rates[peakIdx] {
			peakIdx = i
		}
	}
	if peakIdx < 90 || peakIdx > 270 {
		t.Errorf("peak at index %d, want mid-trace", peakIdx)
	}
	// Ends lower than the middle.
	mid := stats.Mean(tr.Rates[150:210])
	edges := (stats.Mean(tr.Rates[:30]) + stats.Mean(tr.Rates[330:])) / 2
	if mid <= edges {
		t.Errorf("diurnal shape missing: mid %v <= edges %v", mid, edges)
	}
	if _, err := AzureLike(rng, 0, 1); err == nil {
		t.Error("zero duration should fail")
	}
}

func TestAzureLikeDeterministic(t *testing.T) {
	a, _ := AzureLike(stats.NewRNG(3), 100, 1)
	b, _ := AzureLike(stats.NewRNG(3), 100, 1)
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			t.Fatal("AzureLike not deterministic for same seed")
		}
	}
}

func TestArrivalsRateRecovery(t *testing.T) {
	rng := stats.NewRNG(4)
	tr, _ := Static(20, 100, 1)
	arr := tr.Arrivals(rng)
	got := float64(len(arr)) / tr.Duration()
	if math.Abs(got-20) > 1.5 {
		t.Errorf("arrival rate = %.2f, want ~20", got)
	}
	// Sorted and in range.
	for i, a := range arr {
		if a < 0 || a >= tr.Duration() {
			t.Fatalf("arrival %v out of range", a)
		}
		if i > 0 && arr[i] < arr[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
}

func TestArrivalsTrackRateChanges(t *testing.T) {
	rng := stats.NewRNG(5)
	rates := make([]float64, 120)
	for i := range rates {
		rates[i] = 5
		if i >= 60 {
			rates[i] = 50
		}
	}
	tr, _ := New(1, rates)
	arr := tr.Arrivals(rng)
	var lo, hi int
	for _, a := range arr {
		if a < 60 {
			lo++
		} else {
			hi++
		}
	}
	if float64(hi) < 7*float64(lo) {
		t.Errorf("arrival counts lo=%d hi=%d should scale ~10x", lo, hi)
	}
}

func TestArrivalsZeroRate(t *testing.T) {
	rng := stats.NewRNG(6)
	tr, _ := New(1, []float64{0, 0, 0})
	if arr := tr.Arrivals(rng); len(arr) != 0 {
		t.Errorf("zero-rate trace produced %d arrivals", len(arr))
	}
}

func TestExpectedQueries(t *testing.T) {
	tr, _ := New(2, []float64{3, 5})
	if got := tr.ExpectedQueries(); got != 16 {
		t.Errorf("ExpectedQueries = %v, want 16", got)
	}
}

func TestName(t *testing.T) {
	tr, _ := New(1, []float64{4, 18, 32})
	if got := tr.Name(); got != "trace_4to32qps" {
		t.Errorf("Name = %q", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr, _ := New(0.5, []float64{1.5, 2.25, 0})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Interval != tr.Interval {
		t.Errorf("interval = %v, want %v", back.Interval, tr.Interval)
	}
	if len(back.Rates) != len(tr.Rates) {
		t.Fatalf("len = %d", len(back.Rates))
	}
	for i := range tr.Rates {
		if back.Rates[i] != tr.Rates[i] {
			t.Errorf("rate %d = %v, want %v", i, back.Rates[i], tr.Rates[i])
		}
	}
}

func TestReadDefaultsAndErrors(t *testing.T) {
	// No header: 1-second intervals (artifact convention).
	tr, err := Read(strings.NewReader("4\n8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Interval != 1 || len(tr.Rates) != 2 {
		t.Error("headerless parse wrong")
	}
	// Blank lines and comments skipped.
	tr, err = Read(strings.NewReader("# comment\n\n5\n"))
	if err != nil || len(tr.Rates) != 1 {
		t.Errorf("comment handling wrong: %v", err)
	}
	if _, err := Read(strings.NewReader("abc\n")); err == nil {
		t.Error("garbage rate should fail")
	}
	if _, err := Read(strings.NewReader("# interval x\n1\n")); err == nil {
		t.Error("bad interval header should fail")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty file should fail")
	}
}
