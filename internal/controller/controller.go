// Package controller implements DiffServe's control path: it collects
// runtime statistics from the data path (queue lengths, arrival rates,
// SLO timeouts), maintains an exponentially weighted moving average of
// demand, periodically invokes the resource allocator, and logs the
// resulting plans. The AIMD batching ablation lives here too: when
// enabled, the controller overrides the optimizer's batch sizes with
// reactive AIMD decisions.
package controller

import (
	"fmt"
	"math"

	"diffserve/internal/allocator"
	"diffserve/internal/stats"
)

// PlanAt is a timestamped allocation decision.
type PlanAt struct {
	Time   float64
	Demand float64
	Plan   allocator.Plan
}

// Config parameterizes the controller.
type Config struct {
	// Alloc computes allocation plans.
	Alloc allocator.Allocator
	// Interval is the control period in seconds (default 2).
	Interval float64
	// EWMAAlpha smooths demand estimates (default 0.5).
	EWMAAlpha float64
	// AIMD enables the reactive batching ablation: batch sizes follow
	// additive-increase/multiplicative-decrease on SLO timeouts
	// instead of the optimizer's choice.
	AIMD bool
	// AIMDBatchSizes is the AIMD grid (defaults to the standard grid).
	AIMDBatchSizes []int
}

// Controller drives periodic re-allocation.
type Controller struct {
	cfg        Config
	demand     *stats.EWMA
	aimdLight  *allocator.AIMDBatcher
	aimdHeavy  *allocator.AIMDBatcher
	plans      []PlanAt
	ticks      int
	totalSolve float64
}

// New constructs a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Alloc == nil {
		return nil, fmt.Errorf("controller: allocator required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2
	}
	if cfg.EWMAAlpha <= 0 || cfg.EWMAAlpha > 1 {
		cfg.EWMAAlpha = 0.5
	}
	c := &Controller{cfg: cfg, demand: stats.NewEWMA(cfg.EWMAAlpha)}
	if cfg.AIMD {
		c.aimdLight = allocator.NewAIMDBatcher(cfg.AIMDBatchSizes)
		c.aimdHeavy = allocator.NewAIMDBatcher(cfg.AIMDBatchSizes)
	}
	return c, nil
}

// Interval returns the control period.
func (c *Controller) Interval() float64 { return c.cfg.Interval }

// TickInput carries the runtime statistics observed since the last
// control tick.
type TickInput struct {
	// Arrivals is the number of queries that arrived in the interval.
	Arrivals int
	// ElapsedSeconds is the measured time since the previous tick.
	// Zero means exactly one configured interval (the discrete-event
	// simulator's case); the cluster runtime reports wall-derived
	// elapsed time because control ticks there take nonzero time.
	ElapsedSeconds float64
	// LightQueueLen / HeavyQueueLen are current pool queue lengths.
	LightQueueLen, HeavyQueueLen int
	// LightArrivalRate / HeavyArrivalRate are observed pool arrival
	// rates (queries/second).
	LightArrivalRate, HeavyArrivalRate float64
	// SLOTimeouts is the number of violations observed in the interval
	// (drives AIMD).
	SLOTimeouts int
}

// InitialPlan is the tick at time zero, before anything has been
// observed: one interval's arrivals at the trace's starting rate.
func (c *Controller) InitialPlan(startRate float64) (allocator.Plan, error) {
	return c.Tick(0, TickInput{Arrivals: int(math.Round(startRate * c.cfg.Interval))})
}

// Tick runs one control period at time now and returns the new plan.
func (c *Controller) Tick(now float64, in TickInput) (allocator.Plan, error) {
	c.ticks++
	elapsed := in.ElapsedSeconds
	if elapsed <= 0 {
		elapsed = c.cfg.Interval
	}
	instRate := float64(in.Arrivals) / elapsed
	estimate := c.demand.Add(instRate)

	obs := allocator.Observation{
		Demand:           estimate,
		LightQueueLen:    in.LightQueueLen,
		HeavyQueueLen:    in.HeavyQueueLen,
		LightArrivalRate: in.LightArrivalRate,
		HeavyArrivalRate: in.HeavyArrivalRate,
	}
	plan, err := c.cfg.Alloc.Allocate(obs)
	if err != nil {
		return allocator.Plan{}, fmt.Errorf("controller: allocation failed: %w", err)
	}
	if c.cfg.AIMD {
		c.aimdLight.Observe(in.SLOTimeouts > 0)
		c.aimdHeavy.Observe(in.SLOTimeouts > 0)
		plan.LightBatch = c.aimdLight.Batch()
		plan.HeavyBatch = c.aimdHeavy.Batch()
	}
	c.totalSolve += plan.SolveTime.Seconds()
	c.plans = append(c.plans, PlanAt{Time: now, Demand: estimate, Plan: plan})
	return plan, nil
}

// Plans returns the timestamped plan log.
func (c *Controller) Plans() []PlanAt { return c.plans }

// MeanSolveSeconds returns the average allocator solve time.
func (c *Controller) MeanSolveSeconds() float64 {
	if c.ticks == 0 {
		return 0
	}
	return c.totalSolve / float64(c.ticks)
}

// SolveStats always reports zero LP counts and ok false: no allocator
// runs an LP solver any more. It exists only because benchmark/control.go
// reads it for its milp.* metrics, and it goes in the benchmark change
// that drops them.
func (c *Controller) SolveStats() (st struct{ WarmLPs, ColdLPs int }, ok bool) {
	return st, false
}
