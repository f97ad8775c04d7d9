// Package imagespace provides the generative feature-space model that
// substitutes for real diffusion-model inference in this reproduction.
//
// Real images are modeled as points drawn from the standard Gaussian
// N(0, I_K) in a K-dimensional Inception-like feature space, K =
// FeatureDim (16), the one space every experiment uses. A diffusion
// model variant generates, for a query q with latent difficulty
// d(q) ~ Beta(2, 4), a feature vector
//
//	y = c·r(q) + a(q)·u + eps,   eps ~ N(0, tau^2 I)
//
// where r(q) ~ N(0, I) is the query's ground-truth image, c <= 1 is a
// contraction factor (mode collapse: the model under-disperses relative
// to the real distribution), u is the variant's unit artifact direction
// inside a low-dimensional artifact subspace (the leading 4
// dimensions), and
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

// FeatureDim is the feature-space dimensionality.
const FeatureDim = 16

// The artifact subspace is the leading artifactDims dimensions of the
// feature space, and per-query latent difficulty is
// Beta(difficultyAlpha, difficultyBeta).
const (
	artifactDims    = 4
	difficultyAlpha = 2
	difficultyBeta  = 4
)

// Space is a query/image universe: a feature space plus the difficulty
// distribution of the query population.
//
// A Space holds no per-query state: every query, image and its noise is
// a pure function of (seed, query ID, variant), drawn on a pooled
// scratch RNG, so any number of goroutines can sample and generate
// through one Space at once. Generations are memoized on the sampled
// *Query (Query.images); mu guards those memos and the artifact
// direction memo, and is never held while drawing.
type Space struct {
	rng *stats.RNG

	mu   sync.Mutex
	dirs map[dirKey][]float64
}

// dirKey identifies a memoized artifact direction.
type dirKey struct {
	skew float64
	axis int
}

// scratchRNGs holds the RNGs SampleQuery and GenerateDeterministic
// re-seed for each draw.
var scratchRNGs = sync.Pool{New: func() any { return stats.NewRNG(0) }}

// NewSpace constructs a Space. The RNG seeds all query sampling; use
// distinct streams for distinct datasets.
func NewSpace(rng *stats.RNG) *Space {
	return &Space{rng: rng, dirs: make(map[dirKey][]float64)}
}

// Dim returns the feature dimensionality, FeatureDim.
func (s *Space) Dim() int { return FeatureDim }

// Query is a text prompt in the serving system. Its latent difficulty
// and ground-truth image are hidden from the serving system; only the
// generated images (and discriminator scores of them) are observable.
type Query struct {
	ID         int
	Difficulty float64   // latent difficulty in [0, 1]
	Truth      []float64 // ground-truth image feature vector, ~ N(0, I)

	// owner is the Space that sampled the query, and images the
	// generations it memoized on it, guarded by owner.mu. A query
	// built by hand has no owner, so its images are never memoized.
	owner  *Space
	images []genMemo
}

// genMemo is one memoized generation: the image a variant with these
// parameters made of the query.
type genMemo struct {
	GenParams
	Image
}

// SampleQuery draws the query with the given ID from the population.
// Queries are deterministic per ID: each call returns a fresh *Query
// with the same fields. The Space memoizes the query's images on it, so
// a caller that replays one population through several policies or
// thresholds keeps its *Query values and generates each image once —
// treat their exported fields as read-only.
func (s *Space) SampleQuery(id int) *Query {
	// The per-query stream (s.rng, "query", id), on a pooled RNG.
	rng := scratchRNGs.Get().(*stats.RNG)
	rng.Reseed(stats.StreamNSeedFrom(s.rng.Seed(), "query", id))
	q := &Query{
		ID:         id,
		Difficulty: rng.Beta(difficultyAlpha, difficultyBeta),
		Truth:      rng.NormalVec(nil, FeatureDim, 0, 1),
		owner:      s,
	}
	scratchRNGs.Put(rng)
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
	// DirAxis selects the secondary artifact axis (1..artifactDims-1)
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
	meanDiff := float64(difficultyAlpha) / (difficultyAlpha + difficultyBeta)
	return p.ArtifactBase + p.ArtifactSlope*meanDiff
}

// Image is a generated image: its observable features plus the hidden
// ground-truth artifact magnitude used by the evaluation harness (never
// by the serving system itself).
type Image struct {
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
	dir := make([]float64, FeatureDim)
	if skew == 0 {
		dir[0] = 1
		return dir
	}
	if axis < 1 || axis >= artifactDims {
		axis = 1 + ((axis%(artifactDims-1))+(artifactDims-1))%(artifactDims-1)
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
	feat := make([]float64, FeatureDim)
	for i := 0; i < FeatureDim; i++ {
		feat[i] = p.Contraction*q.Truth[i] + a*dir[i] + rng.Normal(0, p.NoiseStd)
	}
	return Image{Features: feat, Artifact: a}
}

// GenerateDeterministic generates q's image with a stream derived from
// the query ID and a variant label, guaranteeing reproducibility when the
// same query is re-generated (e.g. replayed through a different
// serving policy).
//
// Results are memoized on q per (variant, params) when this Space
// sampled q, so replays across approaches, thresholds, or sweep points
// that hold q return the cached image, byte-identical to a fresh
// generation. The returned Image's Features slice is shared with the
// cache — treat it as read-only.
func (s *Space) GenerateDeterministic(q *Query, variant string, p GenParams) Image {
	memo := q.owner == s
	s.mu.Lock()
	if memo {
		if img, ok := q.memoized(variant, p); ok {
			s.mu.Unlock()
			return img
		}
	}
	dir := s.artifactDirLocked(p.DirSkew, p.DirAxis)
	s.mu.Unlock()

	// The stream seed is derived without allocating intermediate
	// strings or RNGs: this hash chain is exactly
	// the per-query stream ("q", q.ID) of rng.Stream("gen:"+variant).
	rng := scratchRNGs.Get().(*stats.RNG)
	rng.Reseed(stats.StreamNSeedFrom(s.rng.StreamSeed2("gen:", variant), "q", q.ID))
	img := s.generate(q, p, rng, dir)
	scratchRNGs.Put(rng)
	img.Variant = variant
	if !memo {
		return img
	}
	s.mu.Lock()
	// Another goroutine may have generated the same image meanwhile:
	// keep the first so the memo never holds a duplicate.
	if prev, ok := q.memoized(variant, p); ok {
		img = prev
	} else {
		if q.images == nil {
			q.images = make([]genMemo, 0, 2) // a cascade's two variants
		}
		q.images = append(q.images, genMemo{p, img})
	}
	s.mu.Unlock()
	return img
}

// memoized returns q's memoized image for (variant, p), if there is
// one. Callers must hold q.owner.mu.
func (q *Query) memoized(variant string, p GenParams) (Image, bool) {
	for i := range q.images {
		if e := &q.images[i]; e.Variant == variant && e.GenParams == p {
			return e.Image, true
		}
	}
	return Image{}, false
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
