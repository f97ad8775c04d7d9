package discriminator

import (
	"math"
	"sync"
	"testing"

	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/stats"
)

func testFixtures(t *testing.T) (*imagespace.Space, *model.Registry, []*imagespace.Query) {
	t.Helper()
	rng := stats.NewRNG(77)
	space := imagespace.NewSpace(rng.Stream("space"))
	return space, model.BuiltinRegistry(), space.SampleQueries(0, 2000)
}

func TestNewValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := New(Config{Arch: "bogus", Train: TrainGT}, rng); err == nil {
		t.Error("unknown arch should fail")
	}
	if _, err := New(Config{Arch: ArchResNet, Train: "bogus"}, rng); err == nil {
		t.Error("unknown train source should fail")
	}
	if _, err := New(Config{Arch: ArchResNet, Train: TrainFake}, rng); err == nil {
		t.Error("TrainFake without HeavyMeanArtifact should fail")
	}
	d, err := New(Config{Arch: ArchEfficientNet, Train: TrainGT}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "EfficientNet w GT" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestDiscriminatorLatenciesMatchPaper(t *testing.T) {
	rng := stats.NewRNG(2)
	// Paper §4.4: EfficientNet 10ms, ViT 5ms, ResNet 2ms on A100.
	cases := []struct {
		arch Arch
		want float64
	}{
		{ArchEfficientNet, 0.010},
		{ArchViT, 0.005},
		{ArchResNet, 0.002},
	}
	for _, c := range cases {
		d, err := New(Config{Arch: c.arch, Train: TrainGT}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if d.PerImageLatency() != c.want {
			t.Errorf("%s latency = %v, want %v", c.arch, d.PerImageLatency(), c.want)
		}
	}
}

func TestConfidenceInUnitInterval(t *testing.T) {
	space, reg, queries := testFixtures(t)
	rng := stats.NewRNG(3)
	light := reg.MustGet("sdturbo")
	scorers := []Scorer{
		mustNew(t, Config{Arch: ArchEfficientNet, Train: TrainGT}, rng),
		mustNew(t, Config{Arch: ArchResNet, Train: TrainGT}, rng),
		mustNew(t, Config{Arch: ArchViT, Train: TrainGT}, rng),
		mustNew(t, Config{Arch: ArchEfficientNet, Train: TrainFake, HeavyMeanArtifact: 4.3}, rng),
		NewPickScore(rng),
		NewClipScore(rng),
		NewRandom(rng),
		NewOracle(),
	}
	for _, s := range scorers {
		for _, q := range queries[:200] {
			img := space.GenerateDeterministic(q, light.Name, light.Gen)
			c := s.Confidence(q, img)
			if c < 0 || c > 1 || math.IsNaN(c) {
				t.Fatalf("%s confidence %v out of [0,1]", s.Name(), c)
			}
		}
	}
}

func mustNew(t *testing.T, cfg Config, rng *stats.RNG) *Discriminator {
	t.Helper()
	d, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfidenceDeterministicPerQuery(t *testing.T) {
	space, reg, queries := testFixtures(t)
	rng := stats.NewRNG(4)
	light := reg.MustGet("sdturbo")
	d := mustNew(t, Config{Arch: ArchEfficientNet, Train: TrainGT}, rng)
	q := queries[0]
	img := space.GenerateDeterministic(q, light.Name, light.Gen)
	a := d.Confidence(q, img)
	b := d.Confidence(q, img)
	if a != b {
		t.Errorf("confidence not deterministic: %v vs %v", a, b)
	}
}

func TestOracleMonotoneInArtifact(t *testing.T) {
	o := NewOracle()
	q := &imagespace.Query{ID: 0, Truth: make([]float64, 16)}
	prev := 2.0
	for a := 0.0; a < 10; a += 0.5 {
		c := o.Confidence(q, imagespace.Image{Artifact: a, Variant: "x"})
		if c >= prev {
			t.Fatalf("oracle confidence not strictly decreasing at artifact %v", a)
		}
		prev = c
	}
}

// confidenceArtifactCorrelation computes the Pearson correlation between
// confidence and (negated) artifact over light-model generations.
func confidenceArtifactCorrelation(space *imagespace.Space, light *model.Variant, queries []*imagespace.Query, s Scorer) float64 {
	var sa, sc, saa, scc, sac float64
	n := float64(len(queries))
	for _, q := range queries {
		img := space.GenerateDeterministic(q, light.Name, light.Gen)
		a := -img.Artifact
		c := s.Confidence(q, img)
		sa += a
		sc += c
		saa += a * a
		scc += c * c
		sac += a * c
	}
	cov := sac/n - (sa/n)*(sc/n)
	va := saa/n - (sa/n)*(sa/n)
	vc := scc/n - (sc/n)*(sc/n)
	return cov / math.Sqrt(va*vc)
}

func TestArchitectureRankingByCorrelation(t *testing.T) {
	// The paper's Fig 7 ordering: EfficientNet w GT best; ViT and
	// ResNet noisier; EfficientNet w Fake structurally biased. A
	// stronger scorer correlates better with true quality.
	space, reg, queries := testFixtures(t)
	rng := stats.NewRNG(5)
	light := reg.MustGet("sdturbo")
	heavyMean := space.MeanArtifact(reg.MustGet("sdv15").Gen)

	eff := mustNew(t, Config{Arch: ArchEfficientNet, Train: TrainGT}, rng)
	vit := mustNew(t, Config{Arch: ArchViT, Train: TrainGT}, rng)
	res := mustNew(t, Config{Arch: ArchResNet, Train: TrainGT}, rng)
	fake := mustNew(t, Config{Arch: ArchEfficientNet, Train: TrainFake, HeavyMeanArtifact: heavyMean}, rng)

	cEff := confidenceArtifactCorrelation(space, light, queries, eff)
	cVit := confidenceArtifactCorrelation(space, light, queries, vit)
	cRes := confidenceArtifactCorrelation(space, light, queries, res)
	cFake := confidenceArtifactCorrelation(space, light, queries, fake)

	if !(cEff > cVit && cVit > cRes) {
		t.Errorf("correlation ordering violated: eff %.3f, vit %.3f, res %.3f", cEff, cVit, cRes)
	}
	if cFake >= cEff {
		t.Errorf("fake-trained discriminator should be weaker: fake %.3f vs gt %.3f", cFake, cEff)
	}
	if cEff < 0.75 {
		t.Errorf("EfficientNet w GT correlation %.3f too weak to drive a cascade", cEff)
	}
}

func TestRandomScorerUniform(t *testing.T) {
	space, reg, queries := testFixtures(t)
	rng := stats.NewRNG(6)
	light := reg.MustGet("sdturbo")
	r := NewRandom(rng)
	var w stats.Welford
	for _, q := range queries {
		img := space.GenerateDeterministic(q, light.Name, light.Gen)
		w.Add(r.Confidence(q, img))
	}
	if math.Abs(w.Mean()-0.5) > 0.03 {
		t.Errorf("random confidence mean = %.3f, want ~0.5", w.Mean())
	}
	// Uniform variance is 1/12 ≈ 0.083.
	if math.Abs(w.Variance()-1.0/12) > 0.01 {
		t.Errorf("random confidence variance = %.4f, want ~0.083", w.Variance())
	}
	// Random confidence must not correlate with quality.
	if c := confidenceArtifactCorrelation(space, light, queries, r); math.Abs(c) > 0.08 {
		t.Errorf("random scorer correlates with quality: %.3f", c)
	}
}

func TestPickScoreDifferenceInformative(t *testing.T) {
	// Same-prompt PickScore differences (heavy minus light) should be
	// positive for 60-80% of queries: the heavy model is usually but
	// not always better (Fig 1b).
	space, reg, queries := testFixtures(t)
	rng := stats.NewRNG(7)
	light, heavy := reg.MustGet("sdturbo"), reg.MustGet("sdv15")
	ps := NewPickScore(rng)
	pos := 0
	for _, q := range queries {
		li := space.GenerateDeterministic(q, light.Name, light.Gen)
		hi := space.GenerateDeterministic(q, heavy.Name, heavy.Gen)
		if ps.Raw(q, hi)-ps.Raw(q, li) > 0 {
			pos++
		}
	}
	frac := float64(pos) / float64(len(queries))
	if frac < 0.55 || frac > 0.85 {
		t.Errorf("heavy-better fraction by PickScore = %.3f, want in [0.55, 0.85]", frac)
	}
}

func TestProxyMetricsPreferArtifactedLightImages(t *testing.T) {
	// The reward-hacking mechanism: among light generations, absolute
	// PickScore/ClipScore *increase* with artifact magnitude, which is
	// why thresholding them misroutes (Fig 1a).
	space, reg, queries := testFixtures(t)
	rng := stats.NewRNG(8)
	light := reg.MustGet("sdturbo")
	for _, s := range []Scorer{NewPickScore(rng), NewClipScore(rng)} {
		if c := confidenceArtifactCorrelation(space, light, queries, s); c > -0.02 {
			t.Errorf("%s correlation with quality = %.3f, want negative (reward hacking)", s.Name(), c)
		}
	}
}

func TestFakeTrainedPenalizesTooCleanImages(t *testing.T) {
	rng := stats.NewRNG(9)
	heavyMean := 4.3
	d := mustNew(t, Config{Arch: ArchEfficientNet, Train: TrainFake, HeavyMeanArtifact: heavyMean}, rng)
	q := &imagespace.Query{ID: 0, Truth: make([]float64, 16)}
	// Average over noise realizations by scoring distinct query IDs.
	avgConf := func(artifact float64) float64 {
		sum := 0.0
		const n = 400
		for i := 0; i < n; i++ {
			qq := &imagespace.Query{ID: i, Truth: q.Truth}
			sum += d.Confidence(qq, imagespace.Image{Artifact: artifact, Variant: "x"})
		}
		return sum / n
	}
	atHeavy := avgConf(heavyMean)
	veryClean := avgConf(0.3)
	veryBad := avgConf(8)
	if !(atHeavy > veryClean && atHeavy > veryBad) {
		t.Errorf("fake-trained discriminator should peak near heavy artifact level: clean %.3f, atHeavy %.3f, bad %.3f",
			veryClean, atHeavy, veryBad)
	}
}

func TestGTConfidenceDecreasesWithArtifact(t *testing.T) {
	rng := stats.NewRNG(10)
	d := mustNew(t, Config{Arch: ArchEfficientNet, Train: TrainGT}, rng)
	q := &imagespace.Query{ID: 0, Truth: make([]float64, 16)}
	avgConf := func(artifact float64) float64 {
		sum := 0.0
		const n = 400
		for i := 0; i < n; i++ {
			qq := &imagespace.Query{ID: i, Truth: q.Truth}
			sum += d.Confidence(qq, imagespace.Image{Artifact: artifact, Variant: "x"})
		}
		return sum / n
	}
	if !(avgConf(2) > avgConf(4.2) && avgConf(4.2) > avgConf(7)) {
		t.Error("GT-trained confidence should decrease with artifact magnitude")
	}
}

// TestConfidenceConcurrentMatchesSerial has 8 goroutines share each
// scorer, scoring 256 overlapping query IDs through two variants in
// orders that differ per goroutine (run it under -race). Every score
// must equal, bit for bit, what a fresh scorer with the same seed
// returns when called serially.
func TestConfidenceConcurrentMatchesSerial(t *testing.T) {
	space, reg, queries := testFixtures(t)
	const workers, ids = 8, 256
	variants := []*model.Variant{reg.MustGet("sdturbo"), reg.MustGet("sdv15")}
	var imgs [ids][2]imagespace.Image
	for id := 0; id < ids; id++ {
		for v, vr := range variants {
			imgs[id][v] = space.GenerateDeterministic(queries[id], vr.Name, vr.Gen)
		}
	}
	type scoreFn func(*imagespace.Query, imagespace.Image) float64
	scorers := map[string]func() scoreFn{
		"discriminator-gt": func() scoreFn {
			return mustNew(t, Config{Arch: ArchEfficientNet, Train: TrainGT}, stats.NewRNG(21)).Confidence
		},
		"discriminator-fake": func() scoreFn {
			return mustNew(t, Config{Arch: ArchViT, Train: TrainFake, HeavyMeanArtifact: 3}, stats.NewRNG(22)).Confidence
		},
		"pickscore-raw": func() scoreFn { return NewPickScore(stats.NewRNG(23)).Raw },
		"clipscore-raw": func() scoreFn { return NewClipScore(stats.NewRNG(24)).Raw },
		"random":        func() scoreFn { return NewRandom(stats.NewRNG(25)).Confidence },
	}
	for name, mk := range scorers {
		shared := mk()
		got := make([][ids][2]float64, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for k := 0; k < ids; k++ {
					id := (k + w*ids/workers) % ids
					for j := range variants {
						v := (j + w) % len(variants)
						got[w][id][v] = shared(queries[id], imgs[id][v])
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		serial := mk()
		for id := 0; id < ids; id++ {
			for v := range variants {
				want := serial(queries[id], imgs[id][v])
				for w := 0; w < workers; w++ {
					if math.Float64bits(got[w][id][v]) != math.Float64bits(want) {
						t.Fatalf("%s: worker %d, id %d, variant %s: %v, serial %v", name, w, id, variants[v].Name, got[w][id][v], want)
					}
				}
			}
		}
	}
}
