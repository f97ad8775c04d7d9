package allocator

import (
	"math"
	"sync"
	"testing"

	"diffserve/internal/cascade"
	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/stats"
)

// buildConfig assembles a realistic cascade-1 allocator config backed
// by a profiled deferral curve.
func buildConfig(t testing.TB, workers int, slo float64) Config {
	t.Helper()
	rng := stats.NewRNG(2026)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	light, heavy := reg.MustGet("sdturbo"), reg.MustGet("sdv15")
	d, err := discriminator.New(discriminator.Config{
		Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
	}, rng.Stream("disc"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cascade.New(space, light, heavy, d)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := cascade.ProfileDeferral(c, space.SampleQueries(0, 2000))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Light: light, Heavy: heavy,
		DiscPerImage: d.PerImageLatency(),
		Deferral:     prof,
		TotalWorkers: workers,
		SLO:          slo,
	}
}

func TestConfigValidation(t *testing.T) {
	good := buildConfig(t, 16, 5)
	bad := good
	bad.Light = nil
	if _, err := NewMILP(bad); err == nil {
		t.Error("nil light should fail")
	}
	bad = good
	bad.Deferral = nil
	if _, err := NewMILP(bad); err == nil {
		t.Error("nil deferral should fail")
	}
	bad = good
	bad.TotalWorkers = 0
	if _, err := NewMILP(bad); err == nil {
		t.Error("zero workers should fail")
	}
	bad = good
	bad.SLO = 0
	if _, err := NewProteus(bad); err == nil {
		t.Error("zero SLO should fail")
	}
}

func TestMILPPlanSatisfiesConstraints(t *testing.T) {
	cfg := buildConfig(t, 16, 5)
	a, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, demand := range []float64{2, 8, 16, 24, 32} {
		plan, err := a.Allocate(Observation{Demand: demand})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Feasible {
			t.Fatalf("demand %v: expected feasible plan, got %v", demand, plan)
		}
		checkPlanFeasible(t, &a.cfg, Observation{Demand: demand}, plan)
	}
}

// checkPlanFeasible re-verifies the paper's four constraints on a plan.
func checkPlanFeasible(t *testing.T, c *Config, obs Observation, p Plan) {
	t.Helper()
	demand := obs.Demand * c.OverProvision
	if p.LightWorkers+p.HeavyWorkers > c.TotalWorkers {
		t.Errorf("budget violated: %d + %d > %d", p.LightWorkers, p.HeavyWorkers, c.TotalWorkers)
	}
	lightCap := float64(p.LightWorkers) * lightThroughput(c, p.LightBatch)
	if lightCap+1e-9 < demand {
		t.Errorf("light throughput violated: %v < %v (plan %v)", lightCap, demand, p)
	}
	heavyCap := float64(p.HeavyWorkers) * heavyThroughput(c, p.HeavyBatch)
	if heavyCap+1e-9 < demand*p.DeferFraction {
		t.Errorf("heavy throughput violated: %v < %v (plan %v)", heavyCap, demand*p.DeferFraction, p)
	}
	q1, q2 := queueDelays(c, obs, p.LightBatch, p.HeavyBatch)
	lat := lightExec(c, p.LightBatch) + q1 + heavyExec(c, p.HeavyBatch) + q2
	if lat > c.SLO+1e-9 {
		t.Errorf("latency violated: %v > %v (plan %v)", lat, c.SLO, p)
	}
}

// gridFeasible is the brute-force reference for a plan's threshold:
// the largest threshold on the grid at which scanPoints finds a batch
// pair and worker split meeting Eqs. 1-4, and false when no grid
// threshold has one.
func gridFeasible(c *Config, obs Observation) (threshold float64, ok bool) {
	demand := math.Max(obs.Demand, 0) * c.OverProvision
	ts, fs := thresholdGrid(c)
	for j := len(ts) - 1; j >= 0; j-- {
		if _, ok := bruteForce(c, obs, demand, ts[j], fs[j]); ok {
			return ts[j], true
		}
	}
	return 0, false
}

func TestMILPMatchesGridThreshold(t *testing.T) {
	cfg := buildConfig(t, 16, 5)
	m, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, demand := range []float64{1, 4, 10, 18, 26, 32, 40, 500} {
		for _, obs := range []Observation{
			{Demand: demand},
			{Demand: demand, LightQueueLen: 10, HeavyQueueLen: 4, LightArrivalRate: demand, HeavyArrivalRate: demand * 0.4},
		} {
			mp, err := m.Allocate(obs)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := gridFeasible(&m.cfg, obs)
			if mp.Feasible != ok {
				t.Fatalf("demand %v: feasibility disagrees: milp %v vs brute-force scan %v", demand, mp, ok)
			}
			if ok && math.Abs(mp.Threshold-want) > 1e-9 {
				t.Errorf("demand %v: thresholds disagree: milp %v vs brute-force scan %v", demand, mp.Threshold, want)
			}
		}
	}
}

func TestThresholdDecreasesWithDemand(t *testing.T) {
	// Model scaling: as demand rises, the optimizer must lower the
	// threshold (defer less) to fit the worker budget.
	cfg := buildConfig(t, 16, 5)
	a, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, demand := range []float64{4, 12, 20, 28, 36, 44} {
		plan, err := a.Allocate(Observation{Demand: demand})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Threshold > prev+1e-9 {
			t.Errorf("threshold increased with demand at %v: %v > %v", demand, plan.Threshold, prev)
		}
		prev = plan.Threshold
	}
}

func TestLowDemandMaximizesDeferralCap(t *testing.T) {
	cfg := buildConfig(t, 16, 5)
	a, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := a.Allocate(Observation{Demand: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.DeferFraction < maxDeferFraction-0.05 {
		t.Errorf("low demand should push deferral to the cap, got %v", plan.DeferFraction)
	}
}

func TestBestEffortOnOverload(t *testing.T) {
	cfg := buildConfig(t, 2, 5)
	a, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 workers cannot serve 500 QPS even all-light.
	plan, err := a.Allocate(Observation{Demand: 500})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Fatalf("expected infeasible best-effort plan, got %v", plan)
	}
	if plan.LightWorkers != 2 || plan.HeavyWorkers != 0 {
		t.Errorf("best effort should go all-light: %v", plan)
	}
	if thr, ok := gridFeasible(&a.cfg, Observation{Demand: 500}); ok {
		t.Errorf("the brute-force scan finds a feasible plan at threshold %v", thr)
	}
}

func TestQueueBacklogTightensLatency(t *testing.T) {
	// A huge observed backlog should make the latency constraint
	// unsatisfiable and force the best-effort path.
	cfg := buildConfig(t, 16, 5)
	a, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := Observation{
		Demand:        8,
		LightQueueLen: 1000, LightArrivalRate: 8,
		HeavyQueueLen: 0, HeavyArrivalRate: 2,
	}
	plan, err := a.Allocate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Errorf("125s backlog should be infeasible under a 5s SLO: %v", plan)
	}
}

func TestFixedThresholdPins(t *testing.T) {
	cfg := buildConfig(t, 16, 5)
	fixed := 0.35
	cfg.FixedThreshold = &fixed
	a, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := a.Allocate(Observation{Demand: 10})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Threshold != fixed {
		t.Errorf("threshold = %v, want pinned %v", plan.Threshold, fixed)
	}
}

func TestTwiceExecQueueModel(t *testing.T) {
	cfg := buildConfig(t, 16, 5)
	cfg.Queue = QueueModelTwiceExec
	a, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Backlog must be ignored under the heuristic model.
	obs := Observation{Demand: 8, LightQueueLen: 1000, LightArrivalRate: 8}
	plan, err := a.Allocate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Errorf("2x-exec model ignores backlog; plan should be feasible: %v", plan)
	}
}

func TestClipperAllocators(t *testing.T) {
	reg := model.BuiltinRegistry()
	lightA, err := NewClipper(reg.MustGet("sdturbo"), false, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lightA.Allocate(Observation{Demand: 100})
	if err != nil {
		t.Fatal(err)
	}
	if p.LightWorkers != 16 || p.HeavyWorkers != 0 || p.DeferFraction != 0 {
		t.Errorf("clipper-light plan wrong: %v", p)
	}
	heavyA, err := NewClipper(reg.MustGet("sdv15"), true, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err = heavyA.Allocate(Observation{})
	if err != nil {
		t.Fatal(err)
	}
	if p.HeavyWorkers != 16 || p.LightWorkers != 0 || p.DeferFraction != 1 {
		t.Errorf("clipper-heavy plan wrong: %v", p)
	}
	if lightA.Name() != "clipper-light" || heavyA.Name() != "clipper-heavy" {
		t.Error("names wrong")
	}
	if _, err := NewClipper(nil, false, 16, 5); err == nil {
		t.Error("nil variant should fail")
	}
	if _, err := NewClipper(reg.MustGet("sdv15"), true, 0, 5); err == nil {
		t.Error("zero workers should fail")
	}
}

func TestProteusScalesHeavyShareWithDemand(t *testing.T) {
	cfg := buildConfig(t, 16, 5)
	a, err := NewProteus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := a.Allocate(Observation{Demand: 4})
	if err != nil {
		t.Fatal(err)
	}
	high, err := a.Allocate(Observation{Demand: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !low.Feasible || !high.Feasible {
		t.Fatalf("plans should be feasible: %v / %v", low, high)
	}
	if low.DeferFraction <= high.DeferFraction {
		t.Errorf("heavy share should shrink with demand: low %v vs high %v", low.DeferFraction, high.DeferFraction)
	}
	if low.LightWorkers+low.HeavyWorkers > cfg.TotalWorkers {
		t.Errorf("budget violated: %v", low)
	}
}

func TestDiffServeStaticFrozen(t *testing.T) {
	cfg := buildConfig(t, 16, 5)
	s, err := NewDiffServeStatic(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s.Allocate(Observation{Demand: 2})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Allocate(Observation{Demand: 32})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("static allocator must return identical plans")
	}
	if s.Name() != "diffserve-static" {
		t.Errorf("name = %q", s.Name())
	}
}

func TestAIMDBatcher(t *testing.T) {
	var b AIMDBatcher
	if b.Batch() != 1 {
		t.Errorf("start batch = %d", b.Batch())
	}
	b.Observe(false)
	b.Observe(false)
	if b.Batch() != 4 {
		t.Errorf("after 2 good intervals = %d, want 4", b.Batch())
	}
	b.Observe(true)
	if b.Batch() != 2 {
		t.Errorf("after timeout = %d, want 2", b.Batch())
	}
	// Bounds.
	for i := 0; i < 10; i++ {
		b.Observe(false)
	}
	if b.Batch() != 32 {
		t.Errorf("cap = %d, want 32", b.Batch())
	}
	for i := 0; i < 10; i++ {
		b.Observe(true)
	}
	if b.Batch() != 1 {
		t.Errorf("floor = %d, want 1", b.Batch())
	}
}

func TestMILPSolveTimeReported(t *testing.T) {
	cfg := buildConfig(t, 16, 5)
	a, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := a.Allocate(Observation{Demand: 16})
	if err != nil {
		t.Fatal(err)
	}
	if plan.SolveTime <= 0 {
		t.Error("SolveTime not recorded")
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Threshold: 0.5, DeferFraction: 0.3, LightWorkers: 10, HeavyWorkers: 6, LightBatch: 8, HeavyBatch: 4, Feasible: true}
	s := p.String()
	if s == "" {
		t.Error("empty String()")
	}
}

// TestAllocateConcurrentSafe drives one allocator from many
// goroutines; the calls share nothing but the read-only config, so the
// race detector must stay quiet (make race-solver).
func TestAllocateConcurrentSafe(t *testing.T) {
	cfg := buildConfig(t, 16, 5)
	a, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := a.Allocate(Observation{Demand: float64(3 + (g*7+i*5)%25)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
