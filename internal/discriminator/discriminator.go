// Package discriminator implements the quality scorers that drive
// diffusion-model cascading: the paper's trained binary real-vs-fake
// discriminators (EfficientNet-V2, ResNet-34, ViT-B/16, each trainable
// against ground-truth or heavy-model "real" samples) plus the
// PickScore, CLIPScore, and Random cascading baselines of Fig 1a.
//
// A trained discriminator observes a generated image's true artifact
// magnitude through architecture-specific observation noise and emits a
// softmax confidence that the image is "real":
//
//	conf = sigmoid(steepness · (midpoint − observed_artifact))
//
// The EfficientNet-with-fake-labels variant, trained with heavyweight
// generations as the "real" class, instead learns the distance to the
// heavy model's output distribution — it penalizes images that are
// *too clean* as well as ones that are too artifacted, which is the
// mechanism behind its inferior routing in Fig 7.
//
// PickScore and CLIPScore are modeled as prompt-image metrics dominated
// by content typicality rather than artifact magnitude. Routing on
// them biases the set of served light images by prompt content, which
// shrinks served-output diversity and explains the paper's surprising
// Fig 1a result that both underperform a Random classifier.
package discriminator

import (
	"fmt"
	"math"
	"sync"

	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/stats"
)

// obsCache memoizes each scorer's per-(variant, query) observation
// draw. Scores are documented to be deterministic per (scorer, query,
// image-variant), so the draw — the only stochastic input — is
// computed once per pair with an allocation-free stream derivation
// and replayed from the cache afterwards. The cache is synchronized
// so concurrent simulation runs can share one scorer.
type obsCache struct {
	mu      sync.Mutex
	vals    map[obsKey]float64
	scratch *stats.RNG
}

type obsKey struct {
	variant string
	id      int
}

func newObsCache() *obsCache {
	return &obsCache{vals: make(map[obsKey]float64), scratch: stats.NewRNG(0)}
}

// sample returns draw applied to the stream
// the per-query stream ("q", id) of base.Stream("v:"+variant),
// memoized.
func (c *obsCache) sample(base *stats.RNG, variant string, id int, draw func(*stats.RNG) float64) float64 {
	k := obsKey{variant: variant, id: id}
	c.mu.Lock()
	v, ok := c.vals[k]
	if !ok {
		c.scratch.Reseed(stats.StreamNSeedFrom(base.StreamSeed2("v:", variant), "q", id))
		v = draw(c.scratch)
		// Bounded like the imagespace memos: past the cap, compute
		// without storing so long-lived processes stay O(1).
		if len(c.vals) < maxObsEntries {
			c.vals[k] = v
		}
	}
	c.mu.Unlock()
	return v
}

// maxObsEntries bounds each scorer's observation memo.
const maxObsEntries = 1 << 20

// Scorer assigns a confidence score in [0, 1] to a generated image;
// higher means more likely to meet the quality bar. A cascade returns
// the light image iff its confidence is at least the threshold.
type Scorer interface {
	// Name identifies the scorer in reports.
	Name() string
	// Confidence scores an image generated for query q. Scores are
	// deterministic per (scorer, query, image-variant).
	Confidence(q *imagespace.Query, img imagespace.Image) float64
	// PerImageLatency is the scoring cost in seconds per image.
	PerImageLatency() float64
}

// LightExec is the light pool's execution time for a batch of n
// queries: the light variant's profiled batch latency plus the
// scorer's per-image cost. A nil scorer — only the cascade runs one —
// adds nothing.
func LightExec(light *model.Variant, s Scorer, n int) float64 {
	exec := light.Latency.Latency(n)
	if s != nil {
		exec += float64(n) * s.PerImageLatency()
	}
	return exec
}

// Arch identifies a discriminator backbone architecture.
type Arch string

// Discriminator backbones evaluated in the paper (§4.4), with their
// reported per-image A100 latencies.
const (
	ArchEfficientNet Arch = "efficientnet-v2"
	ArchResNet       Arch = "resnet-34"
	ArchViT          Arch = "vit-b16"
)

// TrainSource identifies what the discriminator's "real" class was
// during training.
type TrainSource string

const (
	// TrainGT trains against ground-truth dataset images (the paper's
	// final configuration).
	TrainGT TrainSource = "gt"
	// TrainFake trains against heavyweight-model generations labeled
	// as "real".
	TrainFake TrainSource = "fake"
)

// archTraits captures the per-architecture observation quality and
// runtime cost. A stronger backbone estimates the artifact magnitude
// with less noise.
type archTraits struct {
	obsNoise float64
	latency  float64
}

var archs = map[Arch]archTraits{
	ArchEfficientNet: {obsNoise: 0.45, latency: 0.010},
	ArchViT:          {obsNoise: 1.00, latency: 0.005},
	ArchResNet:       {obsNoise: 1.70, latency: 0.002},
}

// Config parameterizes a trained discriminator.
type Config struct {
	Arch  Arch
	Train TrainSource
	// Midpoint is the artifact magnitude at which confidence is 0.5.
	// Zero means use the calibrated default.
	Midpoint float64
	// Steepness is the logistic slope. Zero means use the default.
	Steepness float64
	// HeavyMeanArtifact is required for TrainFake: the mean artifact
	// magnitude of the heavyweight model it was trained against.
	HeavyMeanArtifact float64
}

// Default calibration: the confidence midpoint sits at the typical
// artifact magnitude of a heavyweight generation, so thresholds in
// (0, 1) sweep the full routing range.
const (
	defaultMidpoint  = 4.2
	defaultSteepness = 1.1
)

// Discriminator is a trained real-vs-fake classifier repurposed as a
// cascade confidence estimator.
type Discriminator struct {
	cfg    Config
	traits archTraits
	rng    *stats.RNG
	obs    *obsCache
}

// New constructs a discriminator. rng seeds the observation-noise
// streams; scores remain deterministic per (query, image variant).
func New(cfg Config, rng *stats.RNG) (*Discriminator, error) {
	traits, ok := archs[cfg.Arch]
	if !ok {
		return nil, fmt.Errorf("discriminator: unknown architecture %q", cfg.Arch)
	}
	if cfg.Train != TrainGT && cfg.Train != TrainFake {
		return nil, fmt.Errorf("discriminator: unknown train source %q", cfg.Train)
	}
	if cfg.Train == TrainFake && cfg.HeavyMeanArtifact <= 0 {
		return nil, fmt.Errorf("discriminator: TrainFake requires HeavyMeanArtifact > 0")
	}
	if cfg.Midpoint == 0 {
		cfg.Midpoint = defaultMidpoint
	}
	if cfg.Steepness == 0 {
		cfg.Steepness = defaultSteepness
	}
	if cfg.Train == TrainFake {
		// Training against generated "real" samples yields noisier
		// decision boundaries on top of the structural bias.
		traits.obsNoise *= 1.4
	}
	return &Discriminator{
		cfg: cfg, traits: traits,
		rng: rng.Stream("disc:" + string(cfg.Arch) + ":" + string(cfg.Train)),
		obs: newObsCache(),
	}, nil
}

// Name implements Scorer.
func (d *Discriminator) Name() string {
	label := map[TrainSource]string{TrainGT: "w GT", TrainFake: "w Fake"}[d.cfg.Train]
	arch := map[Arch]string{
		ArchEfficientNet: "EfficientNet",
		ArchResNet:       "ResNet",
		ArchViT:          "ViT",
	}[d.cfg.Arch]
	return arch + " " + label
}

// PerImageLatency implements Scorer.
func (d *Discriminator) PerImageLatency() float64 { return d.traits.latency }

// Confidence implements Scorer.
func (d *Discriminator) Confidence(q *imagespace.Query, img imagespace.Image) float64 {
	noise := d.obs.sample(d.rng, img.Variant, q.ID, func(r *stats.RNG) float64 {
		return r.Normal(0, d.traits.obsNoise)
	})
	observed := img.Artifact + noise
	var score float64
	switch d.cfg.Train {
	case TrainGT:
		// Distance from the real-image manifold: monotone in artifact.
		score = d.cfg.Steepness * (d.cfg.Midpoint - observed)
	case TrainFake:
		// Distance from the heavy model's output distribution: images
		// far from typical heavy artifact levels — in either direction —
		// look "fake" to this discriminator.
		dev := math.Abs(observed - d.cfg.HeavyMeanArtifact)
		score = d.cfg.Steepness * (d.cfg.Midpoint - d.cfg.HeavyMeanArtifact + 1.2 - dev)
	}
	return sigmoid(score)
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// PickScore models the PickScore prompt-image preference metric.
//
// The score is computed from the *observable* image: a CLIP-style
// alignment reading of the image's projection onto the alignment axis
// (the first feature dimension) plus a weak, noisy estimate of true
// visual quality. Because the generative-artifact direction of
// distilled diffusion models has a positive component along the
// alignment axis, artifacts *increase* the alignment reading — the
// well-documented CLIP "reward hacking" effect, where the saturated,
// over-sharpened look of distilled-model outputs reads as better
// prompt alignment.
//
// Consequences, both matching the paper:
//   - Same-prompt score differences remain (noisily) informative, which
//     is why Fig 1b can use PickScore differences to demonstrate the
//     existence of easy queries.
//   - Thresholding absolute scores across prompts prefers *more*
//     artifacted light images, so PickScore routing underperforms even
//     a Random classifier (Fig 1a): scores are "incomparable between
//     different prompt-image pairs".
type PickScore struct {
	rng *stats.RNG
	obs *obsCache
	// AlignmentWeight scales the image's alignment-axis projection;
	// QualityWeight scales the (negated) true-quality estimate; Noise
	// is per-measurement observation noise; Center recenters the
	// squashed confidence near 0.5 for the light-model population.
	AlignmentWeight, QualityWeight, Noise, Center float64
}

// NewPickScore returns a PickScore metric with calibrated weights.
func NewPickScore(rng *stats.RNG) *PickScore {
	return &PickScore{
		rng: rng.Stream("pickscore"), obs: newObsCache(),
		AlignmentWeight: 0.60, QualityWeight: 0.25, Noise: 0.30, Center: 1.4,
	}
}

// Name implements Scorer.
func (p *PickScore) Name() string { return "PickScore" }

// PerImageLatency implements Scorer. PickScore runs a CLIP-H backbone.
func (p *PickScore) PerImageLatency() float64 { return 0.012 }

// Raw returns the unnormalized PickScore, used for Fig 1b score-
// difference CDFs.
func (p *PickScore) Raw(q *imagespace.Query, img imagespace.Image) float64 {
	noise := p.obs.sample(p.rng, img.Variant, q.ID, func(r *stats.RNG) float64 {
		return r.Normal(0, p.Noise)
	})
	return p.AlignmentWeight*img.Features[0] + p.QualityWeight*(-img.Artifact) + noise
}

// Confidence implements Scorer.
func (p *PickScore) Confidence(q *imagespace.Query, img imagespace.Image) float64 {
	return sigmoid(p.Raw(q, img) - p.Center)
}

// ClipScore models the CLIPScore prompt-image alignment metric: the
// same reward-hacked alignment reading as PickScore but with an even
// weaker true-quality component — per the paper, CLIP scores of
// different model variants are very close.
type ClipScore struct {
	rng                                           *stats.RNG
	obs                                           *obsCache
	AlignmentWeight, QualityWeight, Noise, Center float64
}

// NewClipScore returns a CLIPScore metric with calibrated weights.
func NewClipScore(rng *stats.RNG) *ClipScore {
	return &ClipScore{
		rng: rng.Stream("clipscore"), obs: newObsCache(),
		AlignmentWeight: 0.65, QualityWeight: 0.08, Noise: 0.35, Center: 2.4,
	}
}

// Name implements Scorer.
func (c *ClipScore) Name() string { return "ClipScore" }

// PerImageLatency implements Scorer.
func (c *ClipScore) PerImageLatency() float64 { return 0.008 }

// Raw returns the unnormalized CLIPScore.
func (c *ClipScore) Raw(q *imagespace.Query, img imagespace.Image) float64 {
	noise := c.obs.sample(c.rng, img.Variant, q.ID, func(r *stats.RNG) float64 {
		return r.Normal(0, c.Noise)
	})
	return c.AlignmentWeight*img.Features[0] + c.QualityWeight*(-img.Artifact) + noise
}

// Confidence implements Scorer.
func (c *ClipScore) Confidence(q *imagespace.Query, img imagespace.Image) float64 {
	return sigmoid(c.Raw(q, img) - c.Center)
}

// Random is the random-classifier baseline: confidence is an
// independent uniform draw per query, so a threshold t defers a
// fraction t of queries regardless of content.
type Random struct {
	rng *stats.RNG
	obs *obsCache
}

// NewRandom returns the random baseline scorer.
func NewRandom(rng *stats.RNG) *Random {
	return &Random{rng: rng.Stream("random-scorer"), obs: newObsCache()}
}

// Name implements Scorer.
func (r *Random) Name() string { return "Random" }

// PerImageLatency implements Scorer.
func (r *Random) PerImageLatency() float64 { return 0 }

// Confidence implements Scorer.
func (r *Random) Confidence(q *imagespace.Query, img imagespace.Image) float64 {
	return r.obs.sample(r.rng, img.Variant, q.ID, func(rr *stats.RNG) float64 {
		return rr.Float64()
	})
}

// Oracle scores with the ground-truth artifact magnitude and no noise —
// an upper bound used in tests and ablations, never by the system.
type Oracle struct {
	Midpoint, Steepness float64
}

// NewOracle returns an oracle scorer with the default calibration.
func NewOracle() *Oracle {
	return &Oracle{Midpoint: defaultMidpoint, Steepness: defaultSteepness}
}

// Name implements Scorer.
func (o *Oracle) Name() string { return "Oracle" }

// PerImageLatency implements Scorer.
func (o *Oracle) PerImageLatency() float64 { return 0 }

// Confidence implements Scorer.
func (o *Oracle) Confidence(q *imagespace.Query, img imagespace.Image) float64 {
	return sigmoid(o.Steepness * (o.Midpoint - img.Artifact))
}
