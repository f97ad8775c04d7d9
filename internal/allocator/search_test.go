package allocator

import (
	"flag"
	"math"
	"testing"

	"diffserve/internal/stats"
)

// sweep sizes the two property sweeps below: random observations per
// config variant for TestOracleMatchesSolver, demand-walk ticks per
// variant for TestAllocateMatchesLegacyBisect. The default keeps the
// package to a few seconds, because `go test ./...` runs it on the
// same two cores as the cluster's wall-clock-calibrated tests and
// because the race detector slows the simplex ~15x;
// `make sweep-allocator` (scripts/verify.sh, CI) runs -sweep 1500:
// 10 500 observations x every grid index, 10 500 ticks, ~15 s.
var sweep = flag.Int("sweep", 100, "observations / ticks per config variant in the allocator property sweeps")

// legacyAllocate is the threshold search Allocate ran before the
// closed-form oracle: the same bisect, but every probe is a full
// branch-and-bound MILP (5-7 per tick). It lives on here as the
// reference the property tests hold the production search against.
func legacyAllocate(a *MILPAllocator, obs Observation) (Plan, error) {
	c := &a.cfg
	demand := math.Max(obs.Demand, 0) * c.OverProvision
	ts, fs := thresholdGrid(c)
	solve := func(j int) (Plan, bool, error) {
		return a.solveAtThreshold(obs, demand, ts[j], fs[j])
	}
	best, ok, err := solve(0)
	if err != nil {
		return Plan{}, err
	}
	if !ok {
		return bestEffortPlan(c), nil
	}
	lo, hi := 0, len(ts)-1 // feasible at lo
	if hiPlan, hiOK, err := solve(hi); err != nil {
		return Plan{}, err
	} else if hiOK {
		return hiPlan, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		midPlan, midOK, err := solve(mid)
		if err != nil {
			return Plan{}, err
		}
		if midOK {
			lo, best = mid, midPlan
		} else {
			hi = mid
		}
	}
	return best, nil
}

// searchVariants are the allocator configurations the experiments
// build (internal/baselines: static threshold, AIMD's pinned batches,
// the no-queuing-model ablation) plus budgets small enough that the
// worker rows bind at low demand.
func searchVariants(t testing.TB) map[string]Config {
	base := buildConfig(t, 16, 5)
	v := map[string]Config{"default": base}
	thr := 0.35
	c := base
	c.FixedThreshold = &thr
	v["fixed-threshold"] = c
	c = base
	c.FixedLightBatch, c.FixedHeavyBatch = 4, 2
	v["fixed-batches"] = c
	c = base
	c.FixedHeavyBatch = 1
	v["fixed-heavy-batch"] = c
	c = base
	c.Queue = QueueModelTwiceExec
	v["twice-exec"] = c
	c = base
	c.TotalWorkers = 3
	v["workers-3"] = c
	c = base
	c.TotalWorkers, c.SLO = 6, 3
	v["workers-6-slo-3"] = c
	return v
}

// randomObservation draws demand in [0, 60) QPS, queue lengths in
// [0, 200] and per-pool arrival rates that are zero (the fall-back to
// the demand estimate) a third of the time; one draw in ten has
// demand exactly zero and one in four an empty queue.
func randomObservation(r *stats.RNG) Observation {
	qlen := func() int {
		if r.Bernoulli(0.25) {
			return 0
		}
		if r.Bernoulli(0.5) {
			return r.Intn(12)
		}
		return r.Intn(201)
	}
	rate := func(scale float64) float64 {
		if r.Bernoulli(1.0 / 3) {
			return 0
		}
		return r.Uniform(0, scale)
	}
	obs := Observation{Demand: r.Uniform(0, 60), LightQueueLen: qlen(), HeavyQueueLen: qlen()}
	if r.Bernoulli(0.1) {
		obs.Demand = 0
	}
	obs.LightArrivalRate = rate(60)
	obs.HeavyArrivalRate = rate(30)
	return obs
}

// TestOracleMatchesSolver pins the closed form to the MILP: at every
// grid index of every variant, feasible() says yes exactly when
// solveAtThreshold finds a plan.
//
// Nine tenths of a full solve is spent proving a feasible plan optimal,
// which says nothing about feasibility, so the question is put to two
// solvers. Where the oracle says no, the production configuration
// must exhaust branch-and-bound and agree (cheap: the root relaxation
// is usually infeasible already). Where it says yes, an allocator with
// a one-node budget must still return a plan: the solver checks the
// warm-start point against its own constraint rows before adopting it
// as the incumbent, so a yes the rows do not bear out surfaces as
// ErrNodeLimit or an infeasible verdict. (The production configuration
// on the yes side is TestAllocateMatchesLegacyBisect's job: every probe
// of the legacy bisect is a full solve whose verdict must match.)
func TestOracleMatchesSolver(t *testing.T) {
	for name, cfg := range searchVariants(t) {
		t.Run(name, func(t *testing.T) {
			full, err := NewMILP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.NodeLimit = 1
			oneNode, err := NewMILP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := &full.cfg
			ts, fs := thresholdGrid(c)
			r := stats.NewRNG(19).Stream(name)
			var yes, no int
			for i := 0; i < *sweep; i++ {
				obs := randomObservation(r)
				demand := math.Max(obs.Demand, 0) * c.OverProvision
				for j := range ts {
					want := feasible(c, obs, demand, fs[j])
					solver := full
					if want {
						solver = oneNode
						yes++
					} else {
						no++
					}
					_, got, err := solver.solveAtThreshold(obs, demand, ts[j], fs[j])
					if err != nil {
						t.Fatalf("obs %d %+v index %d (f=%v): oracle %v, solver: %v", i, obs, j, fs[j], want, err)
					}
					if got != want {
						t.Fatalf("obs %d %+v index %d (f=%v): oracle %v, solver %v", i, obs, j, fs[j], want, got)
					}
				}
			}
			if yes == 0 || no == 0 {
				t.Fatalf("one-sided sample: %d feasible, %d infeasible", yes, no)
			}
		})
	}
}

func samePlan(a, b Plan) bool {
	a.SolveTime, b.SolveTime = 0, 0
	return a == b
}

// headroomCapped reports whether both pools of p reach headroomCap.
// There the subproblem's objective is flat in the batch sizes, so
// which of the tied optima branch-and-bound returns depends on the
// basis the previous solve left behind — already true of the legacy
// search, whose plans at such demands differ between a long-lived
// allocator and a fresh one.
func headroomCapped(c *Config, obs Observation, p Plan) bool {
	demand := math.Max(obs.Demand, 0) * c.OverProvision
	return float64(p.LightWorkers)*lightThroughput(c, p.LightBatch) >= headroomCap*math.Max(demand, 0.5) &&
		float64(p.HeavyWorkers)*heavyThroughput(c, p.HeavyBatch) >= headroomCap*demand*p.DeferFraction
}

// driftingObservation advances demand one tick — a random walk with
// the occasional burst, reflected into [0, 60] — and returns tick i's
// observation: queue state follows the load loosely, and twice in every
// 40 ticks the state is one no plan can meet.
func driftingObservation(r *stats.RNG, demand *float64, i int) Observation {
	d := *demand + r.Normal(0, 2.5)
	if r.Bernoulli(0.03) {
		d += r.Uniform(-20, 30)
	}
	d = math.Abs(d)
	if d > 60 {
		d = 120 - d
	}
	*demand = d
	obs := Observation{
		Demand:        d,
		LightQueueLen: r.Intn(1 + int(d)),
		HeavyQueueLen: r.Intn(1 + int(d/3)),
	}
	if r.Bernoulli(0.5) {
		obs.LightArrivalRate = d * r.Uniform(0.8, 1.2)
		obs.HeavyArrivalRate = d * r.Uniform(0.1, 0.6)
	}
	switch i % 40 {
	case 19:
		obs.LightQueueLen = 5000 // a backlog no plan can meet
	case 39:
		obs.Demand = 400 + d // nor this, whatever the queue model
	}
	return obs
}

// TestAllocateMatchesLegacyBisect runs the production search and the
// MILP-per-probe reference, each on its own long-lived allocator, over
// one drifting-demand sequence: every field of every plan must agree
// (batch sizes excepted where both plans sit on the headroom cap and
// the optimum is not unique), and the production allocator must have
// called the solver exactly once per tick, feasible or not.
func TestAllocateMatchesLegacyBisect(t *testing.T) {
	ticks := *sweep
	for name, cfg := range searchVariants(t) {
		t.Run(name, func(t *testing.T) {
			got, err := NewMILP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewMILP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := stats.NewRNG(23).Stream(name)
			demand := 8.0
			var infeasible, capped int
			for i := 0; i < ticks; i++ {
				obs := driftingObservation(r, &demand, i)
				before := got.SolveStats().Solves
				p, err := got.Allocate(obs)
				if err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
				if n := got.SolveStats().Solves - before; n != 1 {
					t.Fatalf("tick %d (%+v): %d solves, want exactly 1 (plan %v)", i, obs, n, p)
				}
				want, err := legacyAllocate(ref, obs)
				if err != nil {
					t.Fatalf("tick %d: legacy: %v", i, err)
				}
				if headroomCapped(&got.cfg, obs, p) && headroomCapped(&got.cfg, obs, want) {
					capped++
					want.LightBatch, want.HeavyBatch = p.LightBatch, p.HeavyBatch
				}
				if !samePlan(p, want) {
					t.Fatalf("tick %d (%+v): Allocate %v, legacy bisect %v", i, obs, p, want)
				}
				if !p.Feasible {
					infeasible++
				}
			}
			if unique := ticks - infeasible - capped; infeasible == 0 || unique < ticks/10 {
				t.Fatalf("%d ticks: %d infeasible, %d on the headroom cap, %d unique optima — the sequence should cross feasibility and compare whole plans", ticks, infeasible, capped, unique)
			}
		})
	}
}

// TestSolveDownFromStepsPastSolverInfeasible forces the oracle/solver
// disagreement the step-down exists for: handed an index above the
// largest feasible one (what a too-generous oracle would return),
// solveDownFrom must land on the same plan the search finds, one extra
// solve per skipped index; handed only infeasible indices it must fall
// through to the best-effort plan.
func TestSolveDownFromStepsPastSolverInfeasible(t *testing.T) {
	cfg := buildConfig(t, 16, 5)
	a, err := NewMILP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &a.cfg
	ts, fs := thresholdGrid(c)
	obs := Observation{Demand: 24}
	demand := obs.Demand * c.OverProvision
	j := searchThreshold(c, obs, demand, fs)
	const over = 3
	if j == 0 || j+over >= len(ts) {
		t.Fatalf("demand %v puts the answer at index %d of %d; pick one strictly inside", obs.Demand, j, len(ts))
	}
	want, err := a.solveDownFrom(obs, demand, ts, fs, j)
	if err != nil {
		t.Fatal(err)
	}
	before := a.SolveStats().Solves
	got, err := a.solveDownFrom(obs, demand, ts, fs, j+over)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.SolveStats().Solves - before; n != over+1 {
		t.Errorf("stepping down %d indices took %d solves, want %d", over, n, over+1)
	}
	if !got.Feasible || !samePlan(got, want) {
		t.Errorf("stepped-down plan %v, want %v", got, want)
	}
	if got.Threshold != ts[j] {
		t.Errorf("stepped down to threshold %v, want ts[%d]=%v", got.Threshold, j, ts[j])
	}

	// Nothing feasible anywhere: every index is tried, then best effort.
	obs = Observation{Demand: 8, LightQueueLen: 1000, LightArrivalRate: 8}
	before = a.SolveStats().Solves
	got, err = a.solveDownFrom(obs, 8*c.OverProvision, ts, fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.SolveStats().Solves - before; n != 3 {
		t.Errorf("falling through indices 2..0 took %d solves, want 3", n)
	}
	if got.Feasible || !samePlan(got, bestEffortPlan(c)) {
		t.Errorf("fall-through plan %v, want best effort %v", got, bestEffortPlan(c))
	}
}

// TestSearchThresholdIsLargestFeasibleIndex checks the bisect against
// a linear scan of the oracle, including the all-infeasible (index 0)
// and all-feasible (last index) ends.
func TestSearchThresholdIsLargestFeasibleIndex(t *testing.T) {
	for name, cfg := range searchVariants(t) {
		a, err := NewMILP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := &a.cfg
		_, fs := thresholdGrid(c)
		r := stats.NewRNG(29).Stream(name)
		seen := map[int]bool{}
		for i := 0; i < 2000; i++ {
			obs := randomObservation(r)
			demand := obs.Demand * c.OverProvision
			want := 0
			for j := range fs {
				if feasible(c, obs, demand, fs[j]) {
					want = j
				}
			}
			if got := searchThreshold(c, obs, demand, fs); got != want {
				t.Fatalf("%s: %+v: bisect index %d, scan %d", name, obs, got, want)
			}
			seen[want] = true
		}
		if len(fs) > 1 && (!seen[len(fs)-1] || len(seen) < 4) {
			t.Errorf("%s: sample reached only indices %v", name, seen)
		}
	}
}
