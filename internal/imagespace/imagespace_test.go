package imagespace

import (
	"math"
	"testing"
	"testing/quick"

	"diffserve/internal/stats"
)

func newTestSpace(t *testing.T) *Space {
	t.Helper()
	return NewSpace(stats.NewRNG(1).Stream("space"))
}

func TestSampleQueryDeterministic(t *testing.T) {
	s := newTestSpace(t)
	q1 := s.SampleQuery(42)
	q2 := s.SampleQuery(42)
	if q1.Difficulty != q2.Difficulty {
		t.Error("same query ID yields different difficulty")
	}
	for i := range q1.Truth {
		if q1.Truth[i] != q2.Truth[i] {
			t.Fatalf("same query ID yields different truth at dim %d", i)
		}
	}
	q3 := s.SampleQuery(43)
	if q3.Difficulty == q1.Difficulty {
		t.Error("distinct query IDs unexpectedly share difficulty")
	}
}

func TestSampleQueriesPopulation(t *testing.T) {
	s := newTestSpace(t)
	qs := s.SampleQueries(0, 20000)
	var wDiff Welford2
	var truthVar stats.Welford
	for _, q := range qs {
		if q.Difficulty < 0 || q.Difficulty > 1 {
			t.Fatalf("difficulty %v out of [0,1]", q.Difficulty)
		}
		wDiff.Add(q.Difficulty)
		for _, v := range q.Truth {
			truthVar.Add(v)
		}
	}
	// Beta(2,4) has mean 1/3.
	if math.Abs(wDiff.Mean()-1.0/3) > 0.01 {
		t.Errorf("difficulty mean = %.4f, want ~0.333", wDiff.Mean())
	}
	if math.Abs(truthVar.Mean()) > 0.01 {
		t.Errorf("truth mean = %.4f, want ~0", truthVar.Mean())
	}
	if math.Abs(truthVar.Variance()-1) > 0.02 {
		t.Errorf("truth var = %.4f, want ~1", truthVar.Variance())
	}
}

// Welford2 is a tiny local alias to avoid importing stats twice under
// different names in examples.
type Welford2 = stats.Welford

func TestGenParamsValidate(t *testing.T) {
	good := GenParams{ArtifactBase: 1, ArtifactSlope: 2, ArtifactNoise: 0.1, DirSkew: 0.2, DirAxis: 1, Contraction: 0.9, NoiseStd: 0.1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []GenParams{
		{ArtifactBase: -1, Contraction: 0.9},
		{ArtifactSlope: -1, Contraction: 0.9},
		{ArtifactNoise: -1, Contraction: 0.9},
		{DirSkew: 1.5, Contraction: 0.9},
		{DirSkew: -0.1, Contraction: 0.9},
		{Contraction: 0},
		{Contraction: 2},
		{Contraction: 0.9, NoiseStd: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

// generateFresh generates q's image with the artifact direction
// computed afresh and the caller's stream: the uncached reference the
// tests hold the memoized paths to.
func generateFresh(s *Space, q *Query, p GenParams, rng *stats.RNG) Image {
	return s.generate(q, p, rng, s.artifactDir(p.DirSkew, p.DirAxis))
}

func TestGenerateArtifactGrowsWithDifficulty(t *testing.T) {
	s := newTestSpace(t)
	p := GenParams{ArtifactBase: 1, ArtifactSlope: 5, ArtifactNoise: 0, DirSkew: 0, Contraction: 1, NoiseStd: 0}
	rng := stats.NewRNG(2)
	easy := &Query{ID: 1, Difficulty: 0.1, Truth: make([]float64, s.Dim())}
	hard := &Query{ID: 2, Difficulty: 0.9, Truth: make([]float64, s.Dim())}
	ie := generateFresh(s, easy, p, rng.Stream("a"))
	ih := generateFresh(s, hard, p, rng.Stream("b"))
	if ie.Artifact >= ih.Artifact {
		t.Errorf("artifact should grow with difficulty: easy %.3f vs hard %.3f", ie.Artifact, ih.Artifact)
	}
	if math.Abs(ie.Artifact-1.5) > 1e-9 {
		t.Errorf("noise-free artifact = %v, want 1.5", ie.Artifact)
	}
}

func TestGenerateArtifactNonNegative(t *testing.T) {
	s := newTestSpace(t)
	p := GenParams{ArtifactBase: 0.01, ArtifactSlope: 0, ArtifactNoise: 5, DirSkew: 0, Contraction: 1, NoiseStd: 0}
	rng := stats.NewRNG(3)
	q := s.SampleQuery(0)
	for i := 0; i < 1000; i++ {
		img := generateFresh(s, q, p, stats.NewRNG(stats.StreamNSeedFrom(rng.Seed(), "g", i)))
		if img.Artifact < 0 {
			t.Fatal("artifact went negative")
		}
	}
}

func TestGenerateDeterministicReproducible(t *testing.T) {
	s := newTestSpace(t)
	p := GenParams{ArtifactBase: 1, ArtifactSlope: 2, ArtifactNoise: 0.3, DirSkew: 0.2, DirAxis: 1, Contraction: 0.9, NoiseStd: 0.2}
	q := s.SampleQuery(7)
	a := s.GenerateDeterministic(q, "m", p)
	b := s.GenerateDeterministic(q, "m", p)
	if a.Artifact != b.Artifact {
		t.Error("replayed generation differs in artifact")
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			t.Fatalf("replayed generation differs at dim %d", i)
		}
	}
	if a.Variant != "m" {
		t.Errorf("Variant = %q, want m", a.Variant)
	}
	c := s.GenerateDeterministic(q, "other", p)
	same := true
	for i := range a.Features {
		if a.Features[i] != c.Features[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different variant labels produced identical generations")
	}
}

func TestArtifactShiftLandsOnArtifactDims(t *testing.T) {
	s := newTestSpace(t)
	p := GenParams{ArtifactBase: 4, ArtifactSlope: 0, ArtifactNoise: 0, DirSkew: 0, Contraction: 1, NoiseStd: 0}
	q := &Query{ID: 0, Difficulty: 0.5, Truth: make([]float64, s.Dim())}
	img := generateFresh(s, q, p, stats.NewRNG(4))
	if math.Abs(img.Features[0]-4) > 1e-9 {
		t.Errorf("artifact shift on dim 0 = %v, want 4", img.Features[0])
	}
	for i := 1; i < s.Dim(); i++ {
		if img.Features[i] != 0 {
			t.Errorf("dim %d = %v, want 0 (skew 0)", i, img.Features[i])
		}
	}
}

func TestArtifactDirUnitNormProperty(t *testing.T) {
	s := newTestSpace(t)
	f := func(skewRaw uint8, axis int8) bool {
		skew := float64(skewRaw) / 255
		dir := s.artifactDir(skew, int(axis))
		norm := 0.0
		for _, v := range dir {
			norm += v * v
		}
		return math.Abs(norm-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArtifactDirStaysInSubspace(t *testing.T) {
	s := newTestSpace(t)
	for _, skew := range []float64{0, 0.3, 0.9, 1} {
		for axis := -2; axis < 8; axis++ {
			dir := s.artifactDir(skew, axis)
			for i := artifactDims; i < s.Dim(); i++ {
				if dir[i] != 0 {
					t.Fatalf("skew %v axis %d leaks outside artifact subspace at dim %d", skew, axis, i)
				}
			}
		}
	}
}

func TestMeanArtifact(t *testing.T) {
	s := newTestSpace(t)
	p := GenParams{ArtifactBase: 2, ArtifactSlope: 3, Contraction: 1}
	// Beta(2,4) mean is 1/3.
	want := 2 + 3.0/3
	if got := s.MeanArtifact(p); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanArtifact = %v, want %v", got, want)
	}
}

func TestMomentsKnown(t *testing.T) {
	feats := [][]float64{{0, 0}, {2, 2}, {0, 2}, {2, 0}}
	mu, sigma, err := Moments(feats)
	if err != nil {
		t.Fatal(err)
	}
	if mu[0] != 1 || mu[1] != 1 {
		t.Errorf("mean = %v, want [1 1]", mu)
	}
	// Each coordinate: values {0,2,0,2} → sample var 4/3.
	if math.Abs(sigma.At(0, 0)-4.0/3) > 1e-12 || math.Abs(sigma.At(1, 1)-4.0/3) > 1e-12 {
		t.Errorf("diag = %v, %v, want 4/3", sigma.At(0, 0), sigma.At(1, 1))
	}
	if math.Abs(sigma.At(0, 1)) > 1e-12 {
		t.Errorf("off-diag = %v, want 0", sigma.At(0, 1))
	}
}

func TestMomentsErrors(t *testing.T) {
	if _, _, err := Moments(nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, _, err := Moments([][]float64{{1}}); err == nil {
		t.Error("expected error for single sample")
	}
	if _, _, err := Moments([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("expected error for ragged input")
	}
}

func TestRealImageIsCopy(t *testing.T) {
	s := newTestSpace(t)
	q := s.SampleQuery(0)
	img := s.RealImage(q)
	img[0] = 999
	if q.Truth[0] == 999 {
		t.Error("RealImage aliases query truth")
	}
}
