package allocator

import (
	"fmt"
	"math"
	"time"

	"diffserve/internal/model"
)

// ClipperAllocator is the static single-model baseline (Clipper-Light
// / Clipper-Heavy): every worker hosts the same variant forever. The
// batch size is the largest whose execution latency fits within half
// the SLO, leaving headroom for queuing, re-planned cheaply per call
// (Clipper's AIMD batching is modeled separately by AIMDBatcher in the
// serving loop).
type ClipperAllocator struct {
	variant *model.Variant
	heavy   bool
	workers int
	slo     float64
}

// NewClipper builds a Clipper baseline. heavy selects whether the
// hosted variant plays the heavy role (affects which pool the plan
// populates: Clipper-Light serves everything from the light pool with
// threshold 0, Clipper-Heavy defers everything with threshold 1).
func NewClipper(v *model.Variant, heavy bool, workers int, slo float64) (*ClipperAllocator, error) {
	if v == nil {
		return nil, fmt.Errorf("allocator: Clipper needs a variant")
	}
	if workers <= 0 || slo <= 0 {
		return nil, fmt.Errorf("allocator: Clipper needs positive workers and SLO")
	}
	return &ClipperAllocator{variant: v, heavy: heavy, workers: workers, slo: slo}, nil
}

// Name implements Allocator.
func (a *ClipperAllocator) Name() string {
	if a.heavy {
		return "clipper-heavy"
	}
	return "clipper-light"
}

// Allocate implements Allocator.
func (a *ClipperAllocator) Allocate(Observation) (Plan, error) {
	b, ok := a.variant.Latency.BestBatchWithin(a.slo / 2)
	if !ok {
		b = model.StandardBatchSizes[0]
	}
	if a.heavy {
		return Plan{
			Threshold: 1.01, DeferFraction: 1,
			LightWorkers: 0, HeavyWorkers: a.workers,
			LightBatch: model.StandardBatchSizes[0], HeavyBatch: b,
			Feasible: true,
		}, nil
	}
	return Plan{
		Threshold: 0, DeferFraction: 0,
		LightWorkers: a.workers, HeavyWorkers: 0,
		LightBatch: b, HeavyBatch: model.StandardBatchSizes[0],
		Feasible: true,
	}, nil
}

// ProteusAllocator models Proteus (Ahmad et al., 2024): dynamic model
// scaling that picks how many workers host each variant to maximize
// response quality subject to capacity, but routes queries to variants
// *randomly* in proportion to pool capacity — no query awareness.
// Its plan reuses the cascade Plan shape: DeferFraction is the
// probability a query is routed to the heavy pool, and Threshold is
// unused (the load balancer interprets Proteus plans with random
// routing).
type ProteusAllocator struct {
	cfg Config
}

// NewProteus builds a Proteus-style allocator from the same config as
// the DiffServe allocator (variants, SLO, worker budget).
func NewProteus(cfg Config) (*ProteusAllocator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &ProteusAllocator{cfg: cfg.withDefaults()}, nil
}

// Name implements Allocator.
func (a *ProteusAllocator) Name() string { return "proteus" }

// Allocate implements Allocator. It maximizes the fraction rho of
// queries served by the heavy (higher-quality) variant subject to
//
//	x2·T2(b2) >= rho·D',  x1·T1(b1) >= (1-rho)·D',  x1+x2 <= S,
//	e_i(b_i) + q_i(b_i) <= L for each pool independently
//
// (no cascade dependency: each query runs exactly one model).
func (a *ProteusAllocator) Allocate(obs Observation) (Plan, error) {
	start := time.Now()
	c := &a.cfg
	demand := math.Max(obs.Demand, 1e-9) * c.OverProvision
	lightBs, heavyBs := batchCandidates(c)

	best := Plan{Feasible: false}
	bestRho := -1.0
	for _, b1 := range lightBs {
		for _, b2 := range heavyBs {
			q1, q2 := queueDelays(c, obs, b1, b2)
			// Independent pools: each path must fit the SLO alone.
			if lightExec(c, b1)+q1 > c.SLO || heavyExec(c, b2)+q2 > c.SLO {
				continue
			}
			// Greedily allocate heavy workers and check the light
			// remainder, sweeping the heavy share.
			for x2 := c.TotalWorkers - 1; x2 >= 0; x2-- {
				rho := math.Min(1, float64(x2)*heavyThroughput(c, b2)/demand)
				x1Need := int(math.Ceil((1 - rho) * demand / lightThroughput(c, b1)))
				if x1Need < 1 {
					x1Need = 1
				}
				if x1Need+x2 > c.TotalWorkers {
					continue
				}
				if rho > bestRho {
					bestRho = rho
					best = Plan{
						Threshold: rho, DeferFraction: rho,
						LightWorkers: x1Need, HeavyWorkers: x2,
						LightBatch: b1, HeavyBatch: b2,
						Feasible: true,
					}
				}
				break // smaller x2 only lowers rho for this (b1, b2)
			}
		}
	}
	if bestRho < 0 {
		best = bestEffortPlan(c)
	}
	best.SolveTime = time.Since(start)
	return best, nil
}

// StaticAllocator returns a fixed plan on every call: the
// DiffServe-Static baseline (provisioned for peak, query-aware but
// never adapting).
type StaticAllocator struct{ plan Plan }

// NewDiffServeStatic builds the paper's DiffServe-Static baseline:
// query-aware (cascade + discriminator) but frozen. Worker allocation
// is provisioned for the given peak demand — the light pool is sized
// so the first cascade stage never saturates — while the confidence
// threshold stays pinned at deferTarget (default 0.55), the operator's
// quality-throughput compromise for typical load. At peak demand the
// heavy pool therefore receives more deferrals than it can absorb,
// which is exactly the SLO-violation behaviour the paper reports for
// this baseline (§4.3: up to 19% during peak).
func NewDiffServeStatic(cfg Config, peakDemand, deferTarget float64) (*StaticAllocator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	if deferTarget <= 0 || deferTarget > 1 {
		deferTarget = 0.55
	}
	demand := peakDemand * c.OverProvision
	t := c.Deferral.ThresholdForFraction(deferTarget)
	f := c.Deferral.Fraction(t)

	best := Plan{}
	bestHeavyCap := -1.0
	for _, b1 := range c.BatchSizes {
		for _, b2 := range c.BatchSizes {
			// Provisioning uses the optimistic empty-queue latency
			// model: execution only, with 10% headroom.
			if lightExec(&c, b1)+heavyExec(&c, b2) > 0.9*c.SLO {
				continue
			}
			x1 := int(math.Ceil(demand / lightThroughput(&c, b1)))
			if x1 < 1 {
				x1 = 1
			}
			x2 := c.TotalWorkers - x1
			if x2 < 1 {
				continue
			}
			cap2 := float64(x2) * heavyThroughput(&c, b2)
			if cap2 > bestHeavyCap {
				bestHeavyCap = cap2
				best = Plan{
					Threshold: t, DeferFraction: f,
					LightWorkers: x1, HeavyWorkers: x2,
					LightBatch: b1, HeavyBatch: b2,
					Feasible: true,
				}
			}
		}
	}
	if bestHeavyCap < 0 {
		best = bestEffortPlan(&c)
	}
	return &StaticAllocator{plan: best}, nil
}

// Name implements Allocator.
func (a *StaticAllocator) Name() string { return "diffserve-static" }

// Allocate implements Allocator.
func (a *StaticAllocator) Allocate(Observation) (Plan, error) { return a.plan, nil }

// AIMDBatcher implements Clipper's additive-increase /
// multiplicative-decrease batch-size heuristic, the batching ablation
// of §4.5: on an SLO timeout the batch size halves; otherwise it grows
// by one profiled step.
type AIMDBatcher struct {
	sizes []int
	idx   int
}

// NewAIMDBatcher starts at the smallest batch size of the grid.
func NewAIMDBatcher(sizes []int) *AIMDBatcher {
	if len(sizes) == 0 {
		sizes = model.StandardBatchSizes
	}
	return &AIMDBatcher{sizes: append([]int(nil), sizes...)}
}

// Batch returns the current batch size.
func (a *AIMDBatcher) Batch() int { return a.sizes[a.idx] }

// Observe updates the batch size given whether the last interval saw
// an SLO timeout.
func (a *AIMDBatcher) Observe(sloTimeout bool) {
	if sloTimeout {
		// Multiplicative decrease: halve (one grid step down on the
		// power-of-two grid).
		if a.idx > 0 {
			a.idx--
		}
		return
	}
	// Additive increase: one step up.
	if a.idx < len(a.sizes)-1 {
		a.idx++
	}
}
