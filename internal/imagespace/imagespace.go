// Package imagespace provides the generative feature-space model that
// substitutes for real diffusion-model inference in this reproduction.
//
// Real images are modeled as points drawn from the standard Gaussian
// N(0, I_K) in a K-dimensional Inception-like feature space. A diffusion
// model variant generates, for a query q with latent difficulty d(q), a
// feature vector
//
//	y = c·r(q) + a(q)·u + eps,   eps ~ N(0, tau^2 I)
//
// where r(q) ~ N(0, I) is the query's ground-truth image, c <= 1 is a
// contraction factor (mode collapse: the model under-disperses relative
// to the real distribution), u is the variant's unit artifact direction
// inside a low-dimensional artifact subspace, and
//
//	a(q) = max(0, base + slope·d(q) + noise)
//
// is the per-image artifact magnitude — the ground-truth inverse quality
// of the generation. Lightweight variants have a steeper slope (they
// degrade faster on hard prompts) while heavyweight variants have a
// flatter slope but a non-zero base (even a 50-step model does not match
// the real distribution exactly).
//
// This model reproduces the phenomena the DiffServe paper's evaluation
// rests on:
//
//  1. FID(all-heavy) < FID(all-light): the heavy variant's mean artifact
//     magnitude is lower.
//  2. 20–40% of queries are "easy": on low-difficulty queries the light
//     variant's artifact magnitude is at or below the heavy variant's.
//  3. The U-shape of system FID versus deferral fraction: routing by a
//     quality-aware discriminator keeps only the low-artifact light
//     images, so the served mixture has a smaller mean artifact shift
//     than all-heavy serving, and FID dips below the all-heavy level.
//     Random routing keeps a representative sample of light images and
//     merely interpolates between the endpoints.
package imagespace

import (
	"fmt"
	"math"
	"sync"

	"diffserve/internal/linalg"
	"diffserve/internal/stats"
)

// DefaultDim is the default feature-space dimensionality.
const DefaultDim = 16

// DefaultArtifactDims is the default dimensionality of the artifact
// subspace (the leading dimensions of the feature space).
const DefaultArtifactDims = 4

// SpaceConfig parameterizes a feature space.
type SpaceConfig struct {
	// Dim is the total feature dimensionality.
	Dim int
	// ArtifactDims is the size of the artifact subspace (leading dims).
	ArtifactDims int
	// DifficultyAlpha and DifficultyBeta parameterize the Beta
	// distribution of per-query latent difficulty.
	DifficultyAlpha, DifficultyBeta float64
}

// DefaultSpaceConfig returns the configuration used throughout the
// paper reproduction: a 16-dim feature space with a 4-dim artifact
// subspace and Beta(2, 4) query difficulty.
func DefaultSpaceConfig() SpaceConfig {
	return SpaceConfig{
		Dim:             DefaultDim,
		ArtifactDims:    DefaultArtifactDims,
		DifficultyAlpha: 2,
		DifficultyBeta:  4,
	}
}

// Space is a query/image universe: a feature space plus the difficulty
// distribution of the query population.
type Space struct {
	cfg SpaceConfig
	rng *stats.RNG

	// Deterministic generation and query sampling are memoized:
	// replaying the same query population through different serving
	// policies or thresholds never regenerates an image or re-samples
	// a query. All cache state is guarded by mu so concurrent
	// simulation runs can share one Space.
	mu      sync.Mutex
	images  map[genKey]Image
	queries map[int]*Query
	dirs    map[dirKey][]float64
	genRNG  *stats.RNG // scratch RNG reseeded per cache miss
}

// genKey identifies a deterministic generation: GenParams is part of
// the key so the cache stays correct even if two variants share a name
// with different parameters.
type genKey struct {
	variant string
	id      int
	params  GenParams
}

// dirKey identifies a memoized artifact direction.
type dirKey struct {
	skew float64
	axis int
}

// maxCacheEntries bounds each memo map so a long-lived process (e.g.
// a cluster worker serving an unbounded query stream) cannot grow
// without limit: past the cap, results are computed but not stored.
const maxCacheEntries = 1 << 20

// NewSpace constructs a Space. The RNG seeds all query sampling; use
// distinct streams for distinct datasets.
func NewSpace(cfg SpaceConfig, rng *stats.RNG) (*Space, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("imagespace: Dim must be positive, got %d", cfg.Dim)
	}
	if cfg.ArtifactDims <= 0 || cfg.ArtifactDims > cfg.Dim {
		return nil, fmt.Errorf("imagespace: ArtifactDims must be in [1, Dim], got %d", cfg.ArtifactDims)
	}
	if cfg.DifficultyAlpha <= 0 || cfg.DifficultyBeta <= 0 {
		return nil, fmt.Errorf("imagespace: difficulty Beta parameters must be positive")
	}
	return &Space{
		cfg:     cfg,
		rng:     rng,
		images:  make(map[genKey]Image),
		queries: make(map[int]*Query),
		dirs:    make(map[dirKey][]float64),
		genRNG:  stats.NewRNG(0),
	}, nil
}

// Dim returns the feature dimensionality.
func (s *Space) Dim() int { return s.cfg.Dim }

// Query is a text prompt in the serving system. Its latent difficulty
// and ground-truth image are hidden from the serving system; only the
// generated images (and discriminator scores of them) are observable.
type Query struct {
	ID         int
	Difficulty float64   // latent difficulty in [0, 1]
	Truth      []float64 // ground-truth image feature vector, ~ N(0, I)
}

// SampleQuery draws the query with the given ID from the population.
// Queries are deterministic per ID and memoized, so replaying the
// same population across runs returns shared *Query values — treat
// them as read-only.
func (s *Space) SampleQuery(id int) *Query {
	s.mu.Lock()
	if q, ok := s.queries[id]; ok {
		s.mu.Unlock()
		return q
	}
	// The per-query stream (s.rng, "query", id), without allocating
	// an RNG.
	s.genRNG.Reseed(stats.StreamNSeedFrom(s.rng.Seed(), "query", id))
	q := &Query{
		ID:         id,
		Difficulty: s.genRNG.Beta(s.cfg.DifficultyAlpha, s.cfg.DifficultyBeta),
		Truth:      s.genRNG.NormalVec(nil, s.cfg.Dim, 0, 1),
	}
	if len(s.queries) < maxCacheEntries {
		s.queries[id] = q
	}
	s.mu.Unlock()
	return q
}

// SampleQueries draws n queries with IDs [base, base+n).
func (s *Space) SampleQueries(base, n int) []*Query {
	qs := make([]*Query, n)
	for i := range qs {
		qs[i] = s.SampleQuery(base + i)
	}
	return qs
}

// RealImage returns the ground-truth ("real") image features for a
// query, i.e. the dataset image paired with the prompt.
func (s *Space) RealImage(q *Query) []float64 {
	out := make([]float64, len(q.Truth))
	copy(out, q.Truth)
	return out
}

// GenParams describe how a diffusion-model variant maps a query to
// generated image features.
type GenParams struct {
	// ArtifactBase is the artifact magnitude on the easiest query.
	ArtifactBase float64
	// ArtifactSlope scales artifact magnitude with query difficulty.
	ArtifactSlope float64
	// ArtifactNoise is the std of per-image artifact randomness.
	ArtifactNoise float64
	// DirSkew in [0, 1] rotates the variant's artifact direction away
	// from the shared axis within the artifact subspace. Variants with
	// different skews have partially disjoint failure modes.
	DirSkew float64
	// DirAxis selects the secondary artifact axis (1..ArtifactDims-1)
	// toward which DirSkew rotates. Variants with different axes fail
	// in more orthogonal directions.
	DirAxis int
	// Contraction scales the ground-truth component (mode collapse);
	// 1 means perfectly faithful dispersion.
	Contraction float64
	// NoiseStd is the isotropic generation-noise std.
	NoiseStd float64
}

// Validate reports whether the parameters are usable.
func (p GenParams) Validate() error {
	if p.ArtifactBase < 0 || p.ArtifactSlope < 0 || p.ArtifactNoise < 0 {
		return fmt.Errorf("imagespace: artifact parameters must be non-negative")
	}
	if p.DirSkew < 0 || p.DirSkew > 1 {
		return fmt.Errorf("imagespace: DirSkew must be in [0, 1], got %v", p.DirSkew)
	}
	if p.Contraction <= 0 || p.Contraction > 1.5 {
		return fmt.Errorf("imagespace: Contraction must be in (0, 1.5], got %v", p.Contraction)
	}
	if p.NoiseStd < 0 {
		return fmt.Errorf("imagespace: NoiseStd must be non-negative")
	}
	return nil
}

// MeanArtifact returns the population-mean artifact magnitude under the
// space's difficulty distribution (ignoring the max(0, ·) clamp, which
// is negligible for the calibrated parameter ranges).
func (s *Space) MeanArtifact(p GenParams) float64 {
	meanDiff := s.cfg.DifficultyAlpha / (s.cfg.DifficultyAlpha + s.cfg.DifficultyBeta)
	return p.ArtifactBase + p.ArtifactSlope*meanDiff
}

// Image is a generated image: its observable features plus the hidden
// ground-truth artifact magnitude used by the evaluation harness (never
// by the serving system itself).
type Image struct {
	QueryID  int
	Features []float64
	// Artifact is the ground-truth artifact magnitude (inverse quality).
	Artifact float64
	// Variant records which model variant generated the image.
	Variant string
}

// artifactDir returns the variant's unit artifact direction embedded in
// the full feature space: a rotation of the shared first artifact axis
// by angle skew*pi/2 toward the variant's secondary axis. Variants with
// small skews fail in nearly the same direction; larger skews and
// different secondary axes make failure modes more orthogonal.
func (s *Space) artifactDir(skew float64, axis int) []float64 {
	dir := make([]float64, s.cfg.Dim)
	if s.cfg.ArtifactDims == 1 || skew == 0 {
		dir[0] = 1
		return dir
	}
	if axis < 1 || axis >= s.cfg.ArtifactDims {
		axis = 1 + ((axis%(s.cfg.ArtifactDims-1))+(s.cfg.ArtifactDims-1))%(s.cfg.ArtifactDims-1)
	}
	theta := skew * math.Pi / 2
	dir[0] = math.Cos(theta)
	dir[axis] = math.Sin(theta)
	return dir
}

// generate produces an image for query q under the given generation
// parameters and artifact direction, drawing its noise from rng, a
// per-(query, variant) stream so that the same query generated twice
// by the same variant yields the same image.
func (s *Space) generate(q *Query, p GenParams, rng *stats.RNG, dir []float64) Image {
	a := p.ArtifactBase + p.ArtifactSlope*q.Difficulty + rng.Normal(0, p.ArtifactNoise)
	if a < 0 {
		a = 0
	}
	feat := make([]float64, s.cfg.Dim)
	for i := 0; i < s.cfg.Dim; i++ {
		feat[i] = p.Contraction*q.Truth[i] + a*dir[i] + rng.Normal(0, p.NoiseStd)
	}
	return Image{QueryID: q.ID, Features: feat, Artifact: a}
}

// GenerateDeterministic generates q's image with a stream derived from
// the query ID and a variant label, guaranteeing reproducibility when the
// same query is re-generated (e.g. replayed through a different
// serving policy).
//
// Results are memoized per (variant, query, params): replaying the
// same query population across approaches, thresholds, or sweep
// points returns the cached image, byte-identical to a fresh
// generation. The returned Image's Features slice is shared with the
// cache — treat it as read-only.
func (s *Space) GenerateDeterministic(q *Query, variant string, p GenParams) Image {
	key := genKey{variant: variant, id: q.ID, params: p}
	s.mu.Lock()
	if img, ok := s.images[key]; ok {
		s.mu.Unlock()
		return img
	}
	// The stream seed is derived without allocating intermediate
	// strings or RNGs: this hash chain is exactly
	// the per-query stream ("q", q.ID) of rng.Stream("gen:"+variant).
	seed := stats.StreamNSeedFrom(s.rng.StreamSeed2("gen:", variant), "q", q.ID)
	s.genRNG.Reseed(seed)
	img := s.generate(q, p, s.genRNG, s.artifactDirLocked(p.DirSkew, p.DirAxis))
	img.Variant = variant
	if len(s.images) < maxCacheEntries {
		s.images[key] = img
	}
	s.mu.Unlock()
	return img
}

// artifactDirLocked memoizes artifactDir per (skew, axis). Callers
// must hold s.mu.
func (s *Space) artifactDirLocked(skew float64, axis int) []float64 {
	key := dirKey{skew: skew, axis: axis}
	if dir, ok := s.dirs[key]; ok {
		return dir
	}
	dir := s.artifactDir(skew, axis)
	s.dirs[key] = dir
	return dir
}

// GenerateWithReuse produces the heavy variant's image when it resumes
// denoising from the light variant's output instead of fresh noise —
// the paper's §5 "reuse opportunities" extension. A fraction of the
// light image's artifact magnitude leaks into the refined output; the
// leak grows steeply with the directional mismatch between the two
// variants' artifact modes, which is why the paper finds SD-Turbo
// outputs reusable under SDv1.5 while SDXS reuse degrades FID
// (18.55 -> 19.75 on MS-COCO): compatibility between models is
// critical.
func (s *Space) GenerateWithReuse(q *Query, heavyName string, heavy GenParams, light Image, lightParams GenParams) Image {
	img := s.GenerateDeterministic(q, heavyName, heavy)
	// The deterministic image's features are shared with the memo
	// cache; copy before mutating them with the reuse leak.
	img.Features = append([]float64(nil), img.Features...)
	// Directional compatibility between the variants' artifact modes.
	dH := s.artifactDir(heavy.DirSkew, heavy.DirAxis)
	dL := s.artifactDir(lightParams.DirSkew, lightParams.DirAxis)
	rho := linalg.Dot(dH, dL)
	mismatch := 1 - rho
	leak := 10 * mismatch * mismatch * mismatch
	if leak > 0.5 {
		leak = 0.5
	}
	extra := leak * light.Artifact
	img.Artifact += extra
	for i := range dL {
		img.Features[i] += extra * dL[i]
	}
	img.Variant = heavyName + "+reuse"
	return img
}

// Moments computes the empirical mean vector and covariance matrix of
// a set of feature vectors. It returns an error when fewer than two
// vectors are provided or dimensions disagree.
func Moments(features [][]float64) (mu []float64, sigma *linalg.Matrix, err error) {
	if len(features) < 2 {
		return nil, nil, fmt.Errorf("imagespace: need >= 2 samples for moments, got %d", len(features))
	}
	dim := len(features[0])
	mu = make([]float64, dim)
	for _, f := range features {
		if len(f) != dim {
			return nil, nil, fmt.Errorf("imagespace: inconsistent feature dims %d vs %d", len(f), dim)
		}
		for i, v := range f {
			mu[i] += v
		}
	}
	n := float64(len(features))
	for i := range mu {
		mu[i] /= n
	}
	sigma = linalg.NewMatrix(dim, dim)
	for _, f := range features {
		for i := 0; i < dim; i++ {
			di := f[i] - mu[i]
			for j := i; j < dim; j++ {
				sigma.Data[i*dim+j] += di * (f[j] - mu[j])
			}
		}
	}
	for i := 0; i < dim; i++ {
		for j := i; j < dim; j++ {
			v := sigma.Data[i*dim+j] / (n - 1)
			sigma.Set(i, j, v)
			sigma.Set(j, i, v)
		}
	}
	return mu, sigma, nil
}
