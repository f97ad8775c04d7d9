package cascade

import (
	"math"
	"testing"

	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/stats"
)

func newMultiFixture(t *testing.T, n int) (*imagespace.Space, *MultiLevel, []*imagespace.Query) {
	t.Helper()
	rng := stats.NewRNG(606)
	space, err := imagespace.NewSpace(imagespace.DefaultSpaceConfig(), rng.Stream("space"))
	if err != nil {
		t.Fatal(err)
	}
	reg := model.BuiltinRegistry()
	mk := func(label string) discriminator.Scorer {
		d, err := discriminator.New(discriminator.Config{
			Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
		}, rng.Stream(label))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ml, err := NewMultiLevel(space,
		[]*model.Variant{reg.MustGet("sdxs"), reg.MustGet("sdturbo"), reg.MustGet("sdv15")},
		[]discriminator.Scorer{mk("d0"), mk("d1")})
	if err != nil {
		t.Fatal(err)
	}
	return space, ml, space.SampleQueries(0, n)
}

func TestNewMultiLevelValidation(t *testing.T) {
	space, ml, _ := newMultiFixture(t, 1)
	reg := model.BuiltinRegistry()
	if _, err := NewMultiLevel(nil, ml.Variants, ml.Scorers); err == nil {
		t.Error("nil space should fail")
	}
	if _, err := NewMultiLevel(space, ml.Variants[:1], nil); err == nil {
		t.Error("single stage should fail")
	}
	if _, err := NewMultiLevel(space, ml.Variants, ml.Scorers[:1]); err == nil {
		t.Error("scorer count mismatch should fail")
	}
	// Out-of-order stages (heavy before light).
	bad := []*model.Variant{reg.MustGet("sdv15"), reg.MustGet("sdturbo")}
	if _, err := NewMultiLevel(space, bad, ml.Scorers[:1]); err == nil {
		t.Error("non-increasing latency should fail")
	}
	if _, err := NewMultiLevel(space, ml.Variants, []discriminator.Scorer{ml.Scorers[0], nil}); err == nil {
		t.Error("nil scorer should fail")
	}
	if ml.Stages() != 3 {
		t.Errorf("Stages = %d", ml.Stages())
	}
}

func TestMultiLevelThresholdExtremes(t *testing.T) {
	_, ml, queries := newMultiFixture(t, 100)
	for _, q := range queries {
		// Zero thresholds: first stage always serves.
		out, err := ml.Process(q, []float64{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		if out.ServedStage != 0 || out.Served.Variant != "sdxs" {
			t.Fatalf("zero thresholds served stage %d (%s)", out.ServedStage, out.Served.Variant)
		}
		// Impossible thresholds: final stage serves.
		out, err = ml.Process(q, []float64{1.01, 1.01})
		if err != nil {
			t.Fatal(err)
		}
		if out.ServedStage != 2 || out.Served.Variant != "sdv15" {
			t.Fatalf("max thresholds served stage %d", out.ServedStage)
		}
		// Executed stages accumulate latency.
		if out.Latency <= 0 {
			t.Fatal("latency not accumulated")
		}
	}
}

func TestMultiLevelThresholdCountChecked(t *testing.T) {
	_, ml, queries := newMultiFixture(t, 1)
	if _, err := ml.Process(queries[0], []float64{0.5}); err == nil {
		t.Error("wrong threshold count should fail")
	}
}

func TestMultiLevelLatencyAccounting(t *testing.T) {
	_, ml, queries := newMultiFixture(t, 50)
	for _, q := range queries {
		out, err := ml.Process(q, []float64{0.5, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for i := 0; i <= out.ServedStage; i++ {
			want += ml.Variants[i].Latency.Latency(1)
			if i < len(ml.Scorers) && i < out.ServedStage+1 && i != ml.Stages()-1 {
				// Scorer runs on every non-final executed stage.
				if i <= out.ServedStage && i < len(ml.Scorers) {
					want += ml.Scorers[i].PerImageLatency()
				}
			}
		}
		// Served at final stage means both scorers ran; served at
		// stage i < final means scorers 0..i ran.
		if math.Abs(out.Latency-want) > 1e-9 {
			t.Fatalf("latency %v, want %v (stage %d)", out.Latency, want, out.ServedStage)
		}
	}
}

func TestStageFractionsSumToOne(t *testing.T) {
	_, ml, queries := newMultiFixture(t, 800)
	fracs, err := ml.StageFractions(queries, []float64{0.5, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, f := range fracs {
		if f < 0 {
			t.Fatalf("negative fraction %v", f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
	// All stages should see traffic at moderate thresholds.
	for i, f := range fracs {
		if f == 0 {
			t.Errorf("stage %d starved", i)
		}
	}
	if _, err := ml.StageFractions(nil, []float64{0.5, 0.4}); err == nil {
		t.Error("empty query set should fail")
	}
}

func TestHigherThresholdsPushTrafficDownstream(t *testing.T) {
	_, ml, queries := newMultiFixture(t, 800)
	lo, err := ml.StageFractions(queries, []float64{0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := ml.StageFractions(queries, []float64{0.8, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if !(hi[2] > lo[2]) {
		t.Errorf("stricter thresholds should push more traffic to the final stage: %v vs %v", hi, lo)
	}
	if !(hi[0] < lo[0]) {
		t.Errorf("stricter thresholds should serve less at stage 0: %v vs %v", hi, lo)
	}
}

func TestProfileStageConditioning(t *testing.T) {
	_, ml, queries := newMultiFixture(t, 800)
	prof0, err := ml.ProfileStage(queries, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof0.sortedConfs) != len(queries) {
		t.Errorf("stage 0 profile over %d queries, want all %d", len(prof0.sortedConfs), len(queries))
	}
	t0 := prof0.ThresholdForFraction(0.5)
	prof1, err := ml.ProfileStage(queries, []float64{t0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only deferred (~half) queries reach stage 1.
	if len(prof1.sortedConfs) >= len(queries) || len(prof1.sortedConfs) == 0 {
		t.Errorf("stage 1 profile over %d queries, want ~half", len(prof1.sortedConfs))
	}
	if _, err := ml.ProfileStage(queries, nil, 5); err == nil {
		t.Error("out-of-range stage should fail")
	}
	if _, err := ml.ProfileStage(queries, nil, 1); err == nil {
		t.Error("missing upstream thresholds should fail")
	}
}

func TestMultiLevelDeterministic(t *testing.T) {
	_, ml, queries := newMultiFixture(t, 30)
	for _, q := range queries {
		a, err := ml.Process(q, []float64{0.5, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ml.Process(q, []float64{0.5, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if a.ServedStage != b.ServedStage || a.Latency != b.Latency {
			t.Fatal("multi-level process not deterministic")
		}
	}
}
