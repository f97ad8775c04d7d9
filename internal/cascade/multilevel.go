package cascade

import (
	"fmt"

	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
)

// MultiLevel is the paper's §5 extension to longer pipelines: a chain
// of model variants ordered light to heavy, with a discriminator after
// every stage except the last and one confidence threshold per
// discriminator. A query walks the chain until some stage's confidence
// clears its threshold (or the final stage serves unconditionally).
type MultiLevel struct {
	Space    *imagespace.Space
	Variants []*model.Variant
	// Scorers[i] evaluates the output of Variants[i]; the final stage
	// has no scorer.
	Scorers []discriminator.Scorer
}

// NewMultiLevel builds a multi-level cascade from variants ordered
// light to heavy. It requires at least two stages, strictly increasing
// batch-1 latency, and exactly len(variants)-1 scorers.
func NewMultiLevel(space *imagespace.Space, variants []*model.Variant, scorers []discriminator.Scorer) (*MultiLevel, error) {
	if space == nil {
		return nil, fmt.Errorf("cascade: space required")
	}
	if len(variants) < 2 {
		return nil, fmt.Errorf("cascade: multi-level needs >= 2 stages, got %d", len(variants))
	}
	if len(scorers) != len(variants)-1 {
		return nil, fmt.Errorf("cascade: need %d scorers for %d stages, got %d",
			len(variants)-1, len(variants), len(scorers))
	}
	for i, v := range variants {
		if v == nil {
			return nil, fmt.Errorf("cascade: nil variant at stage %d", i)
		}
		if i > 0 && variants[i-1].BaseLatency() >= v.BaseLatency() {
			return nil, fmt.Errorf("cascade: stage %d (%s) not heavier than stage %d (%s)",
				i, v.Name, i-1, variants[i-1].Name)
		}
	}
	for i, s := range scorers {
		if s == nil {
			return nil, fmt.Errorf("cascade: nil scorer at stage %d", i)
		}
	}
	return &MultiLevel{Space: space, Variants: variants, Scorers: scorers}, nil
}

// Stages returns the number of model stages.
func (m *MultiLevel) Stages() int { return len(m.Variants) }

// MultiOutcome records one query's walk through the chain.
type MultiOutcome struct {
	// ServedStage is the index of the stage whose output was returned.
	ServedStage int
	Served      imagespace.Image
	// Latency is the end-to-end batch-1 latency across executed stages.
	Latency float64
}

// Process walks a query through the chain under the given per-stage
// thresholds (len = Stages()-1). Threshold i applies to stage i's
// confidence: meeting it serves stage i's output.
func (m *MultiLevel) Process(q *imagespace.Query, thresholds []float64) (MultiOutcome, error) {
	if len(thresholds) != len(m.Scorers) {
		return MultiOutcome{}, fmt.Errorf("cascade: need %d thresholds, got %d", len(m.Scorers), len(thresholds))
	}
	var out MultiOutcome
	for i, v := range m.Variants {
		img := m.Space.GenerateDeterministic(q, v.Name, v.Gen)
		out.Latency += v.Latency.Latency(1)
		if i == len(m.Variants)-1 {
			out.ServedStage = i
			out.Served = img
			return out, nil
		}
		out.Latency += m.Scorers[i].PerImageLatency()
		if m.Scorers[i].Confidence(q, img) >= thresholds[i] {
			out.ServedStage = i
			out.Served = img
			return out, nil
		}
	}
	// Unreachable: the final stage always serves.
	return out, fmt.Errorf("cascade: chain fell through")
}

// StageFractions estimates, for the given thresholds, the fraction of
// queries served by each stage — the multi-threshold generalization of
// the two-level deferral fraction f(t) that the extended MILP
// formulation consumes.
func (m *MultiLevel) StageFractions(queries []*imagespace.Query, thresholds []float64) ([]float64, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("cascade: need queries")
	}
	counts := make([]int, m.Stages())
	for _, q := range queries {
		out, err := m.Process(q, thresholds)
		if err != nil {
			return nil, err
		}
		counts[out.ServedStage]++
	}
	fracs := make([]float64, m.Stages())
	for i, c := range counts {
		fracs[i] = float64(c) / float64(len(queries))
	}
	return fracs, nil
}

// ProfileStage builds the deferral profile of stage i's scorer over
// the query set: the fraction of queries whose stage-i confidence
// falls below a threshold, conditioned on reaching stage i under the
// given upstream thresholds.
func (m *MultiLevel) ProfileStage(queries []*imagespace.Query, upstream []float64, stage int) (*DeferralProfile, error) {
	if stage < 0 || stage >= len(m.Scorers) {
		return nil, fmt.Errorf("cascade: stage %d out of range", stage)
	}
	if len(upstream) < stage {
		return nil, fmt.Errorf("cascade: need %d upstream thresholds", stage)
	}
	var confs []float64
	for _, q := range queries {
		reached := true
		for i := 0; i < stage; i++ {
			img := m.Space.GenerateDeterministic(q, m.Variants[i].Name, m.Variants[i].Gen)
			if m.Scorers[i].Confidence(q, img) >= upstream[i] {
				reached = false
				break
			}
		}
		if !reached {
			continue
		}
		img := m.Space.GenerateDeterministic(q, m.Variants[stage].Name, m.Variants[stage].Gen)
		confs = append(confs, m.Scorers[stage].Confidence(q, img))
	}
	if len(confs) == 0 {
		return nil, fmt.Errorf("cascade: no queries reach stage %d", stage)
	}
	return NewDeferralProfileFromConfidences(confs)
}
