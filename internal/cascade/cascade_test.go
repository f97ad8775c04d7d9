package cascade

import (
	"math"
	"testing"
	"testing/quick"

	"diffserve/internal/discriminator"
	"diffserve/internal/fid"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/stats"
)

func newFixture(t *testing.T, n int) (*imagespace.Space, *Cascade, []*imagespace.Query) {
	t.Helper()
	rng := stats.NewRNG(123)
	space, err := imagespace.NewSpace(imagespace.DefaultSpaceConfig(), rng.Stream("space"))
	if err != nil {
		t.Fatal(err)
	}
	reg := model.BuiltinRegistry()
	d, err := discriminator.New(discriminator.Config{
		Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
	}, rng.Stream("disc"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(space, reg.MustGet("sdturbo"), reg.MustGet("sdv15"), d)
	if err != nil {
		t.Fatal(err)
	}
	return space, c, space.SampleQueries(0, n)
}

func TestNewValidation(t *testing.T) {
	space, c, _ := newFixture(t, 1)
	if _, err := New(nil, c.Light, c.Heavy, c.Scorer); err == nil {
		t.Error("nil space should fail")
	}
	if _, err := New(space, c.Light, c.Heavy, nil); err == nil {
		t.Error("nil scorer should fail")
	}
	// Light slower than heavy must be rejected.
	if _, err := New(space, c.Heavy, c.Light, c.Scorer); err == nil {
		t.Error("inverted light/heavy should fail")
	}
}

func TestProcessThresholdExtremes(t *testing.T) {
	_, c, queries := newFixture(t, 200)
	for _, q := range queries {
		// Threshold 0: everything has confidence >= 0, nothing deferred.
		out := c.Process(q, 0)
		if out.Deferred {
			t.Fatal("threshold 0 deferred a query")
		}
		if out.Served.Variant != c.Light.Name {
			t.Fatal("threshold 0 should serve the light image")
		}
		// Threshold > 1: everything deferred.
		out = c.Process(q, 1.01)
		if !out.Deferred {
			t.Fatal("threshold > 1 failed to defer")
		}
		if out.Served.Variant != c.Heavy.Name {
			t.Fatal("deferred query should serve the heavy image")
		}
	}
}

func TestProcessLatencyAccounting(t *testing.T) {
	_, c, queries := newFixture(t, 50)
	base := c.Light.Latency.Latency(1) + c.Scorer.PerImageLatency()
	withHeavy := base + c.Heavy.Latency.Latency(1)
	for _, q := range queries {
		out := c.Process(q, 0.5)
		want := base
		if out.Deferred {
			want = withHeavy
		}
		if math.Abs(out.Latency-want) > 1e-12 {
			t.Fatalf("latency = %v, want %v (deferred=%v)", out.Latency, want, out.Deferred)
		}
	}
}

func TestProcessDeterministic(t *testing.T) {
	_, c, queries := newFixture(t, 20)
	for _, q := range queries {
		a := c.Process(q, 0.5)
		b := c.Process(q, 0.5)
		if a.Confidence != b.Confidence || a.Deferred != b.Deferred {
			t.Fatal("Process is not deterministic")
		}
	}
}

func TestDeferralProfileMonotone(t *testing.T) {
	_, c, queries := newFixture(t, 1000)
	prof, err := ProfileDeferral(c, queries)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw) / 65535
		b := float64(bRaw) / 65535
		if a > b {
			a, b = b, a
		}
		return prof.Fraction(a) <= prof.Fraction(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if got := prof.Fraction(0); got != 0 {
		t.Errorf("Fraction(0) = %v, want 0", got)
	}
	if got := prof.Fraction(1.01); got != 1 {
		t.Errorf("Fraction(1.01) = %v, want 1", got)
	}
}

func TestDeferralProfileInverse(t *testing.T) {
	_, c, queries := newFixture(t, 2000)
	prof, err := ProfileDeferral(c, queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		thr := prof.ThresholdForFraction(frac)
		got := prof.Fraction(thr)
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("round trip fraction %v -> threshold %v -> %v", frac, thr, got)
		}
	}
	if prof.ThresholdForFraction(0) != 0 {
		t.Error("ThresholdForFraction(0) should be 0")
	}
	if prof.ThresholdForFraction(1) != 1 {
		t.Error("ThresholdForFraction(1) should be 1")
	}
}

func TestProfileDeferralErrors(t *testing.T) {
	_, c, _ := newFixture(t, 1)
	if _, err := ProfileDeferral(c, nil); err == nil {
		t.Error("empty query set should fail")
	}
	if _, err := NewDeferralProfileFromConfidences(nil); err == nil {
		t.Error("empty confidence set should fail")
	}
}

func TestEasyFractionInPaperRange(t *testing.T) {
	// Paper Fig 1b: 20-40% of queries are easy for all cascades.
	rng := stats.NewRNG(321)
	space, err := imagespace.NewSpace(imagespace.DefaultSpaceConfig(), rng.Stream("space"))
	if err != nil {
		t.Fatal(err)
	}
	reg := model.BuiltinRegistry()
	queries := space.SampleQueries(0, 3000)
	d, err := discriminator.New(discriminator.Config{
		Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
	}, rng.Stream("d"))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range model.BuiltinCascades() {
		c, err := New(space, reg.MustGet(spec.Light), reg.MustGet(spec.Heavy), d)
		if err != nil {
			t.Fatal(err)
		}
		frac := easyFraction(c, queries)
		if frac < 0.18 || frac > 0.45 {
			t.Errorf("%s easy fraction = %.3f, want ~[0.2, 0.4]", spec.Name, frac)
		}
	}
}

// easyFraction returns the fraction of queries for which the light
// variant's image quality is at least as good as the heavy variant's
// (ground-truth artifact comparison): the paper's Fig 1b headline
// statistic (20–40%).
func easyFraction(c *Cascade, queries []*imagespace.Query) float64 {
	easy := 0
	for _, q := range queries {
		light := c.Space.GenerateDeterministic(q, c.Light.Name, c.Light.Gen)
		heavy := c.Space.GenerateDeterministic(q, c.Heavy.Name, c.Heavy.Gen)
		if light.Artifact <= heavy.Artifact {
			easy++
		}
	}
	return float64(easy) / float64(len(queries))
}

// TestFigure1aOrdering is the core qualitative regression: at matched
// deferral fractions, Discriminator < Random < PickScore/ClipScore in
// FID, and the discriminator curve dips below the all-heavy endpoint.
func TestFigure1aOrdering(t *testing.T) {
	rng := stats.NewRNG(555)
	space, err := imagespace.NewSpace(imagespace.DefaultSpaceConfig(), rng.Stream("space"))
	if err != nil {
		t.Fatal(err)
	}
	reg := model.BuiltinRegistry()
	queries := space.SampleQueries(0, 2500)
	real := make([][]float64, len(queries))
	for i, q := range queries {
		real[i] = space.RealImage(q)
	}
	ref, err := fid.NewReference(real)
	if err != nil {
		t.Fatal(err)
	}
	light, heavy := reg.MustGet("sdturbo"), reg.MustGet("sdv15")

	curve := func(s discriminator.Scorer, fracs []float64) []float64 {
		c, err := New(space, light, heavy, s)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := ProfileDeferral(c, queries)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(fracs))
		for i, f := range fracs {
			thr := prof.ThresholdForFraction(f)
			feats := make([][]float64, len(queries))
			for j, q := range queries {
				feats[j] = c.Process(q, thr).Served.Features
			}
			v, err := ref.Score(feats)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}

	fracs := []float64{0.4, 0.6, 0.8}
	effnet, err := discriminator.New(discriminator.Config{Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT}, rng.Stream("d"))
	if err != nil {
		t.Fatal(err)
	}
	disc := curve(effnet, fracs)
	random := curve(discriminator.NewRandom(rng), fracs)
	pick := curve(discriminator.NewPickScore(rng), fracs)
	clip := curve(discriminator.NewClipScore(rng), fracs)

	for i := range fracs {
		if !(disc[i] < random[i]) {
			t.Errorf("frac %.1f: discriminator FID %.2f not below random %.2f", fracs[i], disc[i], random[i])
		}
		if !(pick[i] > random[i]-0.1) {
			t.Errorf("frac %.1f: PickScore FID %.2f should not beat random %.2f", fracs[i], pick[i], random[i])
		}
		if !(clip[i] > random[i]-0.1) {
			t.Errorf("frac %.1f: ClipScore FID %.2f should not beat random %.2f", fracs[i], clip[i], random[i])
		}
	}

	// All-heavy endpoint: the discriminator cascade must dip below it.
	allHeavyFeats := make([][]float64, len(queries))
	for j, q := range queries {
		allHeavyFeats[j] = space.GenerateDeterministic(q, heavy.Name, heavy.Gen).Features
	}
	allHeavy, err := ref.Score(allHeavyFeats)
	if err != nil {
		t.Fatal(err)
	}
	minDisc := disc[0]
	for _, v := range disc {
		if v < minDisc {
			minDisc = v
		}
	}
	if !(minDisc < allHeavy-0.5) {
		t.Errorf("discriminator cascade min FID %.2f should dip below all-heavy %.2f", minDisc, allHeavy)
	}
}
