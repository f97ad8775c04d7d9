package cascade

import (
	"testing"

	"diffserve/internal/discriminator"
	"diffserve/internal/fid"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/parallel"
	"diffserve/internal/stats"
)

// calibSetup builds the shared fixtures for calibration checks.
func calibSetup(t testing.TB, n int) (*imagespace.Space, *model.Registry, []*imagespace.Query, *fid.Reference) {
	t.Helper()
	rng := stats.NewRNG(20250610)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	queries := space.SampleQueries(0, n)
	real := make([][]float64, n)
	for i, q := range queries {
		real[i] = space.RealImage(q)
	}
	ref, err := fid.NewReference(real)
	if err != nil {
		t.Fatal(err)
	}
	return space, reg, queries, ref
}

// cascadeFIDCurve sweeps deferral fractions — fanned out across CPUs
// with parallel.Map, since each fraction's pass over the query set is
// independent and deterministic — and returns FIDs of the served
// mixture under the cascade's scorer.
func cascadeFIDCurve(t testing.TB, c *Cascade, queries []*imagespace.Query, ref *fid.Reference, fracs []float64) []float64 {
	t.Helper()
	prof, err := ProfileDeferral(c, queries)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parallel.Map(len(fracs), func(i int) (float64, error) {
		thr := prof.ThresholdForFraction(fracs[i])
		feats := make([][]float64, len(queries))
		for j, q := range queries {
			feats[j] = c.Process(q, thr).Served.Features
		}
		return ref.Score(feats)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCalibrationReport prints the calibration summary. Run with -v to
// inspect the numbers against the paper's figures.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short mode")
	}
	space, reg, queries, ref := calibSetup(t, 5000)
	rng := stats.NewRNG(99)

	// Standalone per-variant FIDs are independent passes over the
	// query set: sweep them through the shared fan-out pool.
	names := reg.Names()
	scores, err := parallel.Map(len(names), func(i int) (float64, error) {
		v := reg.MustGet(names[i])
		feats := make([][]float64, len(queries))
		for j, q := range queries {
			feats[j] = space.GenerateDeterministic(q, v.Name, v.Gen).Features
		}
		return ref.Score(feats)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		v := reg.MustGet(name)
		t.Logf("standalone FID %-16s = %6.2f (base latency %.3fs)", v.DisplayName, scores[i], v.BaseLatency())
	}

	for _, spec := range model.BuiltinCascades() {
		light, heavy := reg.MustGet(spec.Light), reg.MustGet(spec.Heavy)
		effnet, err := discriminator.New(discriminator.Config{
			Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(space, light, heavy, effnet)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s easy fraction = %.3f", spec.Name, easyFraction(c, queries))
	}

	// FID-vs-deferral curves for cascade 1 under each scorer.
	spec := model.BuiltinCascades()[0]
	light, heavy := reg.MustGet(spec.Light), reg.MustGet(spec.Heavy)
	fracs := []float64{0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	scorers := []discriminator.Scorer{}
	effnet, err := discriminator.New(discriminator.Config{Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT}, rng)
	if err != nil {
		t.Fatal(err)
	}
	scorers = append(scorers, effnet, discriminator.NewRandom(rng), discriminator.NewPickScore(rng), discriminator.NewClipScore(rng))
	for _, s := range scorers {
		c, err := New(space, light, heavy, s)
		if err != nil {
			t.Fatal(err)
		}
		curve := cascadeFIDCurve(t, c, queries, ref, fracs)
		t.Logf("%-14s FID curve over deferral %v = %v", s.Name(), fracs, fmtFloats(curve))
	}
}

func fmtFloats(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*100+0.5)) / 100
	}
	return out
}
