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

// obsRNGs holds the scratch RNGs the scorers draw observations from.
var obsRNGs = sync.Pool{New: func() any { return stats.NewRNG(0) }}

// obsRNG returns a pooled RNG seeded to a scorer's observation stream
// for query id's image by variant: the per-query stream ("q", id) of
// base.Stream("v:"+variant). Release it with obsRNGs.Put. Scores are
// documented to be deterministic per (scorer, query, image-variant);
// the draw, their only stochastic input, is a pure function of that
// triple, so it is drawn afresh each time and any number of goroutines
// can share one scorer.
func obsRNG(base *stats.RNG, variant string, id int) *stats.RNG {
	r := obsRNGs.Get().(*stats.RNG)
	r.Reseed(stats.StreamNSeedFrom(base.StreamSeed2("v:", variant), "q", id))
	return r
}

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
	// HeavyMeanArtifact is required for TrainFake: the mean artifact
	// magnitude of the heavyweight model it was trained against.
	HeavyMeanArtifact float64
}

// The confidence calibration: midpoint is the artifact magnitude at
// which confidence is 0.5, the typical magnitude of a heavyweight
// generation, so thresholds in (0, 1) sweep the full routing range;
// steepness is the logistic slope.
const (
	midpoint  = 4.2
	steepness = 1.1
)

// Discriminator is a trained real-vs-fake classifier repurposed as a
// cascade confidence estimator.
type Discriminator struct {
	cfg    Config
	traits archTraits
	rng    *stats.RNG
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
	if cfg.Train == TrainFake {
		// Training against generated "real" samples yields noisier
		// decision boundaries on top of the structural bias.
		traits.obsNoise *= 1.4
	}
	return &Discriminator{
		cfg: cfg, traits: traits,
		rng: rng.Stream("disc:" + string(cfg.Arch) + ":" + string(cfg.Train)),
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
	r := obsRNG(d.rng, img.Variant, q.ID)
	observed := img.Artifact + r.Normal(0, d.traits.obsNoise)
	obsRNGs.Put(r)
	var score float64
	switch d.cfg.Train {
	case TrainGT:
		// Distance from the real-image manifold: monotone in artifact.
		score = steepness * (midpoint - observed)
	case TrainFake:
		// Distance from the heavy model's output distribution: images
		// far from typical heavy artifact levels — in either direction —
		// look "fake" to this discriminator.
		dev := math.Abs(observed - d.cfg.HeavyMeanArtifact)
		score = steepness * (midpoint - d.cfg.HeavyMeanArtifact + 1.2 - dev)
	}
	return sigmoid(score)
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// PromptScore models a prompt-image metric, PickScore or CLIPScore.
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
//     artifacted light images, so routing on either metric
//     underperforms even a Random classifier (Fig 1a): scores are
//     "incomparable between different prompt-image pairs".
type PromptScore struct {
	name    string
	latency float64
	rng     *stats.RNG
	// alignment scales the image's alignment-axis projection; quality
	// scales the (negated) true-quality estimate; noise is the
	// per-measurement observation noise; center recenters the squashed
	// confidence near 0.5 for the light-model population.
	alignment, quality, noise, center float64
}

// NewPickScore returns the PickScore metric, which runs a CLIP-H
// backbone.
func NewPickScore(rng *stats.RNG) *PromptScore {
	return &PromptScore{
		name: "PickScore", latency: 0.012, rng: rng.Stream("pickscore"),
		alignment: 0.60, quality: 0.25, noise: 0.30, center: 1.4,
	}
}

// NewClipScore returns the CLIPScore metric: the same reward-hacked
// alignment reading as PickScore but with an even weaker true-quality
// component — per the paper, CLIP scores of different model variants
// are very close.
func NewClipScore(rng *stats.RNG) *PromptScore {
	return &PromptScore{
		name: "ClipScore", latency: 0.008, rng: rng.Stream("clipscore"),
		alignment: 0.65, quality: 0.08, noise: 0.35, center: 2.4,
	}
}

// Name implements Scorer.
func (p *PromptScore) Name() string { return p.name }

// PerImageLatency implements Scorer.
func (p *PromptScore) PerImageLatency() float64 { return p.latency }

// Raw returns the unnormalized score, used for Fig 1b score-difference
// CDFs.
func (p *PromptScore) Raw(q *imagespace.Query, img imagespace.Image) float64 {
	r := obsRNG(p.rng, img.Variant, q.ID)
	noise := r.Normal(0, p.noise)
	obsRNGs.Put(r)
	return p.alignment*img.Features[0] + p.quality*(-img.Artifact) + noise
}

// Confidence implements Scorer.
func (p *PromptScore) Confidence(q *imagespace.Query, img imagespace.Image) float64 {
	return sigmoid(p.Raw(q, img) - p.center)
}

// Random is the random-classifier baseline: confidence is an
// independent uniform draw per query, so a threshold t defers a
// fraction t of queries regardless of content.
type Random struct {
	rng *stats.RNG
}

// NewRandom returns the random baseline scorer.
func NewRandom(rng *stats.RNG) *Random {
	return &Random{rng: rng.Stream("random-scorer")}
}

// Name implements Scorer.
func (r *Random) Name() string { return "Random" }

// PerImageLatency implements Scorer.
func (r *Random) PerImageLatency() float64 { return 0 }

// Confidence implements Scorer.
func (r *Random) Confidence(q *imagespace.Query, img imagespace.Image) float64 {
	rr := obsRNG(r.rng, img.Variant, q.ID)
	v := rr.Float64()
	obsRNGs.Put(rr)
	return v
}

// Oracle scores with the ground-truth artifact magnitude and no noise —
// an upper bound used in tests and ablations, never by the system.
type Oracle struct{}

// NewOracle returns an oracle scorer with the discriminators'
// calibration.
func NewOracle() *Oracle { return &Oracle{} }

// Name implements Scorer.
func (o *Oracle) Name() string { return "Oracle" }

// PerImageLatency implements Scorer.
func (o *Oracle) PerImageLatency() float64 { return 0 }

// Confidence implements Scorer.
func (o *Oracle) Confidence(q *imagespace.Query, img imagespace.Image) float64 {
	return sigmoid(steepness * (midpoint - img.Artifact))
}
