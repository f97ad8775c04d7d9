// Package cascade implements diffusion-model cascades: a lightweight
// and a heavyweight variant joined by a discriminator. Every query is
// first generated by the light model; if the discriminator's confidence
// in the light image is at least the confidence threshold the image is
// served, otherwise the query is deferred to the heavy model.
//
// The package also provides the deferral-fraction profile f(t) — the
// fraction of queries deferred at threshold t — which the resource
// allocator consumes, initialized offline and updated online as the
// paper describes (§3.3).
package cascade

import (
	"fmt"
	"sort"

	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
)

// Cascade pairs a light and a heavy model variant with a scorer.
type Cascade struct {
	Space  *imagespace.Space
	Light  *model.Variant
	Heavy  *model.Variant
	Scorer discriminator.Scorer
}

// New constructs a cascade. It validates that the light model is
// actually lighter than the heavy model at batch 1.
func New(space *imagespace.Space, light, heavy *model.Variant, scorer discriminator.Scorer) (*Cascade, error) {
	if space == nil || light == nil || heavy == nil || scorer == nil {
		return nil, fmt.Errorf("cascade: all components must be non-nil")
	}
	if light.BaseLatency() >= heavy.BaseLatency() {
		return nil, fmt.Errorf("cascade: light variant %q (%.3fs) is not faster than heavy variant %q (%.3fs)",
			light.Name, light.BaseLatency(), heavy.Name, heavy.BaseLatency())
	}
	return &Cascade{Space: space, Light: light, Heavy: heavy, Scorer: scorer}, nil
}

// Outcome records the result of pushing one query through a cascade
// outside the serving system (batch size 1, no queuing).
type Outcome struct {
	Query      *imagespace.Query
	LightImage imagespace.Image
	HeavyImage imagespace.Image // zero value unless Deferred
	Confidence float64
	Deferred   bool
	Served     imagespace.Image
	// Latency is the end-to-end batch-1 processing latency in seconds:
	// light execution + discriminator, plus heavy execution if deferred.
	Latency float64
}

// Process pushes a query through the cascade at the given confidence
// threshold.
func (c *Cascade) Process(q *imagespace.Query, threshold float64) Outcome {
	light := c.Space.GenerateDeterministic(q, c.Light.Name, c.Light.Gen)
	conf := c.Scorer.Confidence(q, light)
	out := Outcome{
		Query:      q,
		LightImage: light,
		Confidence: conf,
		Latency:    discriminator.LightExec(c.Light, c.Scorer, 1),
	}
	if conf >= threshold {
		out.Served = light
		return out
	}
	out.Deferred = true
	out.HeavyImage = c.Space.GenerateDeterministic(q, c.Heavy.Name, c.Heavy.Gen)
	out.Served = out.HeavyImage
	out.Latency += c.Heavy.Latency.Latency(1)
	return out
}

// Confidences returns the light-image confidence for each query, used
// for offline deferral profiling.
func (c *Cascade) Confidences(queries []*imagespace.Query) []float64 {
	confs := make([]float64, len(queries))
	for i, q := range queries {
		light := c.Space.GenerateDeterministic(q, c.Light.Name, c.Light.Gen)
		confs[i] = c.Scorer.Confidence(q, light)
	}
	return confs
}

// DeferralProfile models f(t): the fraction of queries whose light-
// image confidence falls below threshold t and are therefore deferred
// to the heavy model.
type DeferralProfile struct {
	sortedConfs []float64
}

// ProfileDeferral builds a deferral profile offline from a calibration
// query set. It returns an error when no queries are supplied.
func ProfileDeferral(c *Cascade, queries []*imagespace.Query) (*DeferralProfile, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("cascade: deferral profiling needs at least one query")
	}
	confs := c.Confidences(queries)
	sort.Float64s(confs)
	return &DeferralProfile{sortedConfs: confs}, nil
}

// NewDeferralProfileFromConfidences builds a profile directly from
// observed confidence scores (used for online refresh).
func NewDeferralProfileFromConfidences(confs []float64) (*DeferralProfile, error) {
	if len(confs) == 0 {
		return nil, fmt.Errorf("cascade: need at least one confidence")
	}
	s := append([]float64(nil), confs...)
	sort.Float64s(s)
	return &DeferralProfile{sortedConfs: s}, nil
}

// Fraction returns f(t): the fraction of queries deferred at threshold
// t (confidence strictly below t).
func (p *DeferralProfile) Fraction(t float64) float64 {
	i := sort.SearchFloat64s(p.sortedConfs, t)
	return float64(i) / float64(len(p.sortedConfs))
}

// ThresholdForFraction returns the largest threshold that defers at
// most the given fraction of queries — the inverse of Fraction, used
// by allocators that pick a deferral budget first.
func (p *DeferralProfile) ThresholdForFraction(f float64) float64 {
	if f <= 0 {
		return 0
	}
	n := len(p.sortedConfs)
	if f >= 1 {
		return 1
	}
	i := int(f * float64(n))
	if i >= n {
		i = n - 1
	}
	return p.sortedConfs[i]
}
