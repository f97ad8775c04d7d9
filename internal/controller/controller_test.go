package controller

import (
	"errors"
	"math"
	"testing"

	"diffserve/internal/allocator"
)

// fakeAlloc records observations and returns a canned plan.
type fakeAlloc struct {
	obs  []allocator.Observation
	plan allocator.Plan
	err  error
}

func (f *fakeAlloc) Name() string { return "fake" }
func (f *fakeAlloc) Allocate(o allocator.Observation) (allocator.Plan, error) {
	f.obs = append(f.obs, o)
	return f.plan, f.err
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil allocator should fail")
	}
	c, err := New(Config{Alloc: &fakeAlloc{}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Interval() != 2 {
		t.Errorf("default interval = %v", c.Interval())
	}
}

func TestTickDemandEWMA(t *testing.T) {
	fa := &fakeAlloc{plan: allocator.Plan{Feasible: true, LightBatch: 1, HeavyBatch: 1}}
	c, err := New(Config{Alloc: fa, Interval: 2, EWMAAlpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// First tick: 20 arrivals over 2s -> 10 QPS; EWMA initializes to 10.
	if _, err := c.Tick(2, TickInput{Arrivals: 20}); err != nil {
		t.Fatal(err)
	}
	if got := c.Plans()[0].Demand; got != 10 {
		t.Errorf("demand = %v, want 10", got)
	}
	// Second tick: 0 arrivals -> EWMA 0.5*0 + 0.5*10 = 5.
	if _, err := c.Tick(4, TickInput{Arrivals: 0}); err != nil {
		t.Fatal(err)
	}
	if got := c.Plans()[1].Demand; got != 5 {
		t.Errorf("demand = %v, want 5", got)
	}
	if fa.obs[1].Demand != 5 {
		t.Errorf("allocator saw demand %v", fa.obs[1].Demand)
	}
	if c.ticks != 2 {
		t.Errorf("Ticks = %d", c.ticks)
	}
}

func TestTickPassesQueueState(t *testing.T) {
	fa := &fakeAlloc{plan: allocator.Plan{Feasible: true}}
	c, _ := New(Config{Alloc: fa})
	in := TickInput{
		Arrivals:      4,
		LightQueueLen: 7, HeavyQueueLen: 3,
		LightArrivalRate: 2.5, HeavyArrivalRate: 1.5,
	}
	if _, err := c.Tick(2, in); err != nil {
		t.Fatal(err)
	}
	got := fa.obs[0]
	if got.LightQueueLen != 7 || got.HeavyQueueLen != 3 ||
		got.LightArrivalRate != 2.5 || got.HeavyArrivalRate != 1.5 {
		t.Errorf("observation = %+v", got)
	}
}

func TestTickAllocatorError(t *testing.T) {
	fa := &fakeAlloc{err: errors.New("boom")}
	c, _ := New(Config{Alloc: fa})
	if _, err := c.Tick(2, TickInput{}); err == nil {
		t.Error("allocator error should propagate")
	}
}

func TestAIMDOverridesBatches(t *testing.T) {
	fa := &fakeAlloc{plan: allocator.Plan{Feasible: true, LightBatch: 32, HeavyBatch: 32}}
	c, err := New(Config{Alloc: fa, AIMD: true, AIMDBatchSizes: []int{1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// No timeouts: AIMD grows from 1 to 2.
	plan, err := c.Tick(2, TickInput{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.LightBatch != 2 || plan.HeavyBatch != 2 {
		t.Errorf("AIMD batches = %d/%d, want 2/2", plan.LightBatch, plan.HeavyBatch)
	}
	// Timeout: halves back to 1.
	plan, err = c.Tick(4, TickInput{SLOTimeouts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plan.LightBatch != 1 {
		t.Errorf("AIMD after timeout = %d, want 1", plan.LightBatch)
	}
}

func TestPlanLog(t *testing.T) {
	fa := &fakeAlloc{plan: allocator.Plan{Feasible: true, Threshold: 0.4}}
	c, _ := New(Config{Alloc: fa})
	c.Tick(2, TickInput{Arrivals: 10})
	c.Tick(4, TickInput{Arrivals: 12})
	plans := c.Plans()
	if len(plans) != 2 {
		t.Fatalf("plan log = %d entries", len(plans))
	}
	if plans[0].Time != 2 || plans[1].Time != 4 {
		t.Errorf("plan times = %v, %v", plans[0].Time, plans[1].Time)
	}
	if plans[0].Plan.Threshold != 0.4 {
		t.Errorf("logged threshold = %v", plans[0].Plan.Threshold)
	}
	if math.IsNaN(c.MeanSolveSeconds()) {
		t.Error("MeanSolveSeconds NaN")
	}
}

func TestMeanSolveSecondsEmpty(t *testing.T) {
	c, _ := New(Config{Alloc: &fakeAlloc{}})
	if c.MeanSolveSeconds() != 0 {
		t.Error("no ticks should mean 0 solve time")
	}
}
