// Package allocator implements DiffServe's resource-allocation
// algorithm (paper §3.3) and the alternatives it is evaluated against.
//
// The DiffServe allocator maximizes the confidence threshold t subject
// to the paper's constraints:
//
//	e(b1) + q(b1) + e(b2) + q(b2) <= L      (latency, Eq. 1)
//	x1 · T1(b1) >= D'                        (light throughput, Eq. 2)
//	x2 · T2(b2) >= D' · f(t)                 (heavy throughput, Eq. 3)
//	x1 + x2 <= S                             (worker budget, Eq. 4)
//
// with D' = lambda · D the over-provisioned demand estimate, q(·) the
// Little's-law queuing delay W = L/lambda from observed queue state,
// and f(t) the profiled deferral fraction. The threshold is discretized
// onto a grid, which makes the problem the paper's MILP (batch and
// threshold selectors, integer worker counts). MILPAllocator bisects
// the grid on a closed-form feasibility test and solves the program at
// the threshold it picks exactly, by enumerating batch pairs and
// worker splits; its tests hold the oracle and the enumeration to a
// brute-force scan of every batch pair and worker split against the
// constraints above.
// GridAllocator, which places only the workers the demand needs, is
// the ablation baseline.
package allocator

import (
	"fmt"
	"math"
	"time"

	"diffserve/internal/cascade"
	"diffserve/internal/model"
)

// Observation is the runtime state the controller feeds an allocator.
type Observation struct {
	// Demand is the EWMA-estimated total arrival rate D (QPS).
	Demand float64
	// LightQueueLen and HeavyQueueLen are total queued queries per pool.
	LightQueueLen, HeavyQueueLen int
	// LightArrivalRate and HeavyArrivalRate are the observed per-pool
	// arrival rates used for Little's-law wait estimation; zero values
	// fall back to the demand estimate.
	LightArrivalRate, HeavyArrivalRate float64
}

// Plan is an allocation decision.
type Plan struct {
	// Threshold is the cascade confidence threshold t.
	Threshold float64
	// DeferFraction is f(t) under the deferral profile used to solve.
	DeferFraction float64
	// LightWorkers and HeavyWorkers are worker counts (x1, x2).
	LightWorkers, HeavyWorkers int
	// LightBatch and HeavyBatch are batch sizes (b1, b2).
	LightBatch, HeavyBatch int
	// Feasible is false when even the most permissive configuration
	// cannot satisfy the constraints; the returned plan is then a
	// best-effort all-light configuration and the load balancer is
	// expected to shed load.
	Feasible bool
	// SolveTime is the wall-clock optimization time.
	SolveTime time.Duration
}

func (p Plan) String() string {
	return fmt.Sprintf("t=%.3f f=%.2f light=%dx b%d heavy=%dx b%d feasible=%v",
		p.Threshold, p.DeferFraction, p.LightWorkers, p.LightBatch, p.HeavyWorkers, p.HeavyBatch, p.Feasible)
}

// Allocator computes allocation plans from runtime observations.
type Allocator interface {
	Name() string
	Allocate(obs Observation) (Plan, error)
}

// QueueModel selects how q(b) is estimated in the latency constraint.
type QueueModel int

const (
	// QueueModelLittle uses Little's law W = L/lambda from observed
	// queue state (the paper's model).
	QueueModelLittle QueueModel = iota
	// QueueModelTwiceExec uses the prior-work heuristic that a query's
	// total stage latency is twice the execution delay (queuing delay
	// equals one batch execution: "a query can always be executed in
	// the next batch after it arrives"), ignoring live queue state —
	// the "No queuing model" ablation of §4.5.
	QueueModelTwiceExec
)

// Config parameterizes the DiffServe allocator.
type Config struct {
	// Light and Heavy are the cascade's model variants.
	Light, Heavy *model.Variant
	// DiscPerImage is the discriminator's per-image latency, executed
	// on the light workers' accelerators.
	DiscPerImage float64
	// Deferral is the profiled deferral-fraction function f(t).
	Deferral *cascade.DeferralProfile
	// TotalWorkers is the device budget S.
	TotalWorkers int
	// SLO is the latency deadline L in seconds.
	SLO float64
	// OverProvision is the demand inflation factor lambda (default 1.05).
	OverProvision float64
	// ThresholdGridSize discretizes t (default 20 points).
	ThresholdGridSize int
	// MaxDeferFraction caps the threshold grid at the deferral level
	// found quality-optimal in offline FID profiling; beyond the FID
	// curve's dip, additional deferral wastes capacity and degrades
	// quality (Fig 1a). Default 0.65.
	MaxDeferFraction float64
	// BatchSizes are the candidate batch sizes (default the standard
	// profiled grid).
	BatchSizes []int
	// Queue selects the queuing-delay model.
	Queue QueueModel
	// FixedThreshold, when non-nil, pins t (the "Static threshold"
	// ablation); the optimizer still tunes workers and batches.
	FixedThreshold *float64
	// FixedLightBatch and FixedHeavyBatch, when positive, pin the
	// batch sizes (the AIMD ablation drives these externally).
	FixedLightBatch, FixedHeavyBatch int
}

func (c *Config) validate() error {
	if c.Light == nil || c.Heavy == nil {
		return fmt.Errorf("allocator: light and heavy variants required")
	}
	if c.Deferral == nil {
		return fmt.Errorf("allocator: deferral profile required")
	}
	if c.TotalWorkers <= 0 {
		return fmt.Errorf("allocator: TotalWorkers must be positive")
	}
	if c.SLO <= 0 {
		return fmt.Errorf("allocator: SLO must be positive")
	}
	return nil
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.OverProvision <= 0 {
		out.OverProvision = 1.05
	}
	if out.ThresholdGridSize <= 0 {
		out.ThresholdGridSize = 20
	}
	if out.MaxDeferFraction <= 0 || out.MaxDeferFraction > 1 {
		out.MaxDeferFraction = 0.65
	}
	if len(out.BatchSizes) == 0 {
		out.BatchSizes = model.StandardBatchSizes
	}
	return out
}

// lightExec returns the light worker's batch execution latency
// including the discriminator pass over the batch.
func lightExec(c *Config, b int) float64 {
	return c.Light.Latency.Latency(b) + float64(b)*c.DiscPerImage
}

// lightThroughput returns a light worker's sustained QPS at batch b.
func lightThroughput(c *Config, b int) float64 {
	return float64(b) / lightExec(c, b)
}

// heavyExec returns the heavy worker's batch execution latency.
func heavyExec(c *Config, b int) float64 { return c.Heavy.Latency.Latency(b) }

// heavyThroughput returns a heavy worker's sustained QPS at batch b.
func heavyThroughput(c *Config, b int) float64 {
	return float64(b) / heavyExec(c, b)
}

// queueDelays returns the queuing-delay estimates (q1, q2) for the
// given batch sizes under the configured queue model.
func queueDelays(c *Config, obs Observation, b1, b2 int) (float64, float64) {
	switch c.Queue {
	case QueueModelTwiceExec:
		return lightExec(c, b1), heavyExec(c, b2)
	default:
		// Little's law W = L/lambda from the observed queue state, as
		// the paper specifies. W already includes the delay caused by
		// in-flight batches: it is the realized mean waiting time.
		l1 := obs.LightArrivalRate
		if l1 <= 0 {
			l1 = math.Max(obs.Demand, 1e-9)
		}
		l2 := obs.HeavyArrivalRate
		if l2 <= 0 {
			l2 = math.Max(obs.Demand*0.3, 1e-9)
		}
		return float64(obs.LightQueueLen) / l1, float64(obs.HeavyQueueLen) / l2
	}
}

// thresholdGrid returns the candidate thresholds (ascending) and their
// deferral fractions. Threshold 0 (defer nothing) is always included
// as the most permissive fallback.
func thresholdGrid(c *Config) (ts, fs []float64) {
	if c.FixedThreshold != nil {
		t := *c.FixedThreshold
		return []float64{t}, []float64{c.Deferral.Fraction(t)}
	}
	n := c.ThresholdGridSize
	ts = make([]float64, 0, n+1)
	fs = make([]float64, 0, n+1)
	ts = append(ts, 0)
	fs = append(fs, 0)
	for i := 1; i <= n; i++ {
		frac := c.MaxDeferFraction * float64(i) / float64(n)
		t := c.Deferral.ThresholdForFraction(frac)
		ts = append(ts, t)
		fs = append(fs, c.Deferral.Fraction(t))
	}
	return ts, fs
}

// batchCandidates returns the candidate batch lists honoring fixed
// batch overrides.
func batchCandidates(c *Config) (light, heavy []int) {
	light = c.BatchSizes
	heavy = c.BatchSizes
	if c.FixedLightBatch > 0 {
		light = []int{c.FixedLightBatch}
	}
	if c.FixedHeavyBatch > 0 {
		heavy = []int{c.FixedHeavyBatch}
	}
	return light, heavy
}

// bestEffortPlan is returned when no configuration is feasible: all
// workers serve the light model at the largest batch within the SLO
// (or the smallest batch if none fits), threshold 0.
func bestEffortPlan(c *Config) Plan {
	b := c.BatchSizes[0]
	if got, ok := c.Light.Latency.BestBatchWithin(c.SLO / 2); ok {
		b = got
	}
	if c.FixedLightBatch > 0 {
		b = c.FixedLightBatch
	}
	return Plan{
		Threshold: 0, DeferFraction: 0,
		LightWorkers: c.TotalWorkers, HeavyWorkers: 0,
		LightBatch: b, HeavyBatch: firstBatch(c),
		Feasible: false,
	}
}

func firstBatch(c *Config) int {
	if c.FixedHeavyBatch > 0 {
		return c.FixedHeavyBatch
	}
	return c.BatchSizes[0]
}
