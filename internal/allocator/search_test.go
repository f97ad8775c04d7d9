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
// package to a couple of seconds, because `go test ./...` runs it on
// the same two cores as the cluster's wall-clock-calibrated tests;
// `make sweep-allocator` (scripts/verify.sh, CI) runs -sweep 1500:
// 10 500 observations x every grid index, 10 500 ticks.
var sweep = flag.Int("sweep", 100, "observations / ticks per config variant in the allocator property sweeps")

// scanPoints visits every point of the fixed-threshold program at
// deferral fraction f that meets Eqs. 1-4 as the paper writes them —
// every batch pair, every w1 >= 1 and w2 >= 0 with w1 + w2 <= S, the
// throughput rows checked as products rather than through admit's
// minimal counts — in ascending (b1, b2, w1, w2) order, with the
// objective enumerate maximizes.
func scanPoints(c *Config, obs Observation, demand, f float64, visit func(b1, b2, w1, w2 int, obj float64)) {
	lightBs, heavyBs := batchCandidates(c)
	dl, dh := math.Max(demand, 0.5), demand*f
	for _, b1 := range lightBs {
		for _, b2 := range heavyBs {
			q1, q2 := queueDelays(c, obs, b1, b2)
			if lightExec(c, b1)+q1+heavyExec(c, b2)+q2 > c.SLO { // Eq. 1
				continue
			}
			t1, t2 := lightThroughput(c, b1), heavyThroughput(c, b2)
			for w1 := 1; w1 <= c.TotalWorkers; w1++ {
				for w2 := 0; w1+w2 <= c.TotalWorkers; w2++ { // Eq. 4
					if float64(w1)*t1 < demand || float64(w2)*t2 < dh { // Eqs. 2-3
						continue
					}
					h := math.Min(headroomCap, float64(w1)*t1/dl)
					if dh > 0 {
						h = math.Min(h, float64(w2)*t2/dh)
					}
					visit(b1, b2, w1, w2, h+1e-4*float64(w1)+9e-5*float64(w2))
				}
			}
		}
	}
}

// bruteForce solves the fixed-threshold program at threshold t by
// scanPoints, keeping the first optimum in scan order. It shares the
// program's terms with enumerate but neither admit nor the reduction
// to w2 = S - w1.
func bruteForce(c *Config, obs Observation, demand, t, f float64) (plan Plan, ok bool) {
	best := 0.0
	scanPoints(c, obs, demand, f, func(b1, b2, w1, w2 int, obj float64) {
		if !ok || obj > best {
			best, ok = obj, true
			plan = Plan{
				Threshold: t, DeferFraction: f,
				LightWorkers: w1, HeavyWorkers: w2,
				LightBatch: b1, HeavyBatch: b2,
				Feasible: true,
			}
		}
	})
	return plan, ok
}

// legacyAllocate is the threshold search Allocate ran before the
// closed-form oracle: the same bisect, but every probe solves the
// fixed-threshold program (by bruteForce here) and the search keeps
// the plan of the last feasible probe. It is the independent
// reference TestAllocateMatchesLegacyBisect holds Allocate to.
func legacyAllocate(c *Config, obs Observation) Plan {
	demand := math.Max(obs.Demand, 0) * c.OverProvision
	ts, fs := thresholdGrid(c)
	solve := func(j int) (Plan, bool) { return bruteForce(c, obs, demand, ts[j], fs[j]) }
	best, ok := solve(0)
	if !ok {
		return bestEffortPlan(c)
	}
	lo, hi := 0, len(ts)-1 // feasible at lo
	if hiPlan, hiOK := solve(hi); hiOK {
		return hiPlan
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if midPlan, midOK := solve(mid); midOK {
			lo, best = mid, midPlan
		} else {
			hi = mid
		}
	}
	return best
}

func samePlan(a, b Plan) bool {
	a.SolveTime, b.SolveTime = 0, 0
	return a == b
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

// TestOracleMatchesSolver pins the closed forms to the unreduced
// program: at every grid index of every variant, feasible() says yes
// exactly when bruteForce finds a point, enumerate returns bruteForce's
// plan field for field, and that plan meets Eqs. 1-4 as
// checkPlanFeasible re-derives them.
func TestOracleMatchesSolver(t *testing.T) {
	for name, cfg := range searchVariants(t) {
		t.Run(name, func(t *testing.T) {
			a, err := NewMILP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := &a.cfg
			ts, fs := thresholdGrid(c)
			r := stats.NewRNG(19).Stream(name)
			var yes, no int
			for i := 0; i < *sweep; i++ {
				obs := randomObservation(r)
				demand := obs.Demand * c.OverProvision
				for j := range ts {
					want, wantOK := bruteForce(c, obs, demand, ts[j], fs[j])
					if oracle := feasible(c, obs, demand, fs[j]); oracle != wantOK {
						t.Fatalf("obs %d %+v index %d (f=%v): oracle %v, brute force %v", i, obs, j, fs[j], oracle, wantOK)
					}
					p, ok := enumerate(c, obs, demand, ts[j], fs[j])
					if ok != wantOK || !samePlan(p, want) {
						t.Fatalf("obs %d %+v index %d: enumerate %v (%v), brute force %v (%v)", i, obs, j, p, ok, want, wantOK)
					}
					if !ok {
						no++
						continue
					}
					yes++
					checkPlanFeasible(t, c, obs, p)
					if t.Failed() {
						t.Fatalf("obs %d %+v index %d: plan %v", i, obs, j, p)
					}
				}
			}
			if yes == 0 || no == 0 {
				t.Fatalf("one-sided sample: %d feasible, %d infeasible", yes, no)
			}
		})
	}
}

// headroomCapped reports whether both pools of p reach headroomCap.
// There the subproblem's objective is flat in the batch sizes.
func headroomCapped(c *Config, obs Observation, p Plan) bool {
	demand := math.Max(obs.Demand, 0) * c.OverProvision
	return float64(p.LightWorkers)*lightThroughput(c, p.LightBatch) >= headroomCap*math.Max(demand, 0.5) &&
		float64(p.HeavyWorkers)*heavyThroughput(c, p.HeavyBatch) >= headroomCap*demand*p.DeferFraction
}

// TestEnumerateTieBreaksInScanOrder pins enumerate's documented
// tie-break where it decides the plan: at a demand below 1 QPS both
// pools sit on headroomCap, several batch pairs reach the same optimum,
// and the plan must be the first of them in (b1, b2) scan order. The
// optima are found here by scanPoints, the unreduced scan.
func TestEnumerateTieBreaksInScanOrder(t *testing.T) {
	a, err := NewMILP(buildConfig(t, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	c := &a.cfg
	obs := Observation{Demand: 0.5}
	p, err := a.Allocate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible || !headroomCapped(c, obs, p) {
		t.Fatalf("plan %v: want a feasible plan with both pools on the headroom cap", p)
	}
	type pair struct{ b1, b2 int }
	var optima []pair
	best := math.Inf(-1)
	scanPoints(c, obs, obs.Demand*c.OverProvision, p.DeferFraction, func(b1, b2, _, _ int, obj float64) {
		switch {
		case obj > best:
			best, optima = obj, []pair{{b1, b2}}
		case obj == best && optima[len(optima)-1] != (pair{b1, b2}):
			optima = append(optima, pair{b1, b2})
		}
	})
	if len(optima) < 2 {
		t.Fatalf("optimum reached only by %v: no tie to break", optima)
	}
	if got := (pair{p.LightBatch, p.HeavyBatch}); got != optima[0] {
		t.Errorf("plan %v takes batch pair %v; tied optima in scan order %v", p, got, optima)
	}
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

// TestAllocateMatchesLegacyBisect runs the production search on one
// long-lived allocator beside the solve-every-probe reference over one
// drifting-demand sequence: every field of every plan must agree, and
// every feasible plan must meet Eqs. 1-4.
func TestAllocateMatchesLegacyBisect(t *testing.T) {
	ticks := *sweep
	for name, cfg := range searchVariants(t) {
		t.Run(name, func(t *testing.T) {
			got, err := NewMILP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := got.Config()
			r := stats.NewRNG(23).Stream(name)
			demand := 8.0
			var infeasible, capped int
			for i := 0; i < ticks; i++ {
				obs := driftingObservation(r, &demand, i)
				p, err := got.Allocate(obs)
				if err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
				if want := legacyAllocate(&c, obs); !samePlan(p, want) {
					t.Fatalf("tick %d (%+v): Allocate %v, legacy bisect %v", i, obs, p, want)
				}
				if !p.Feasible {
					infeasible++
					continue
				}
				checkPlanFeasible(t, &c, obs, p)
				if t.Failed() {
					t.Fatalf("tick %d (%+v): plan %v", i, obs, p)
				}
				if headroomCapped(&c, obs, p) {
					capped++
				}
			}
			if unique := ticks - infeasible - capped; infeasible == 0 || unique < ticks/10 {
				t.Fatalf("%d ticks: %d infeasible, %d on the headroom cap, %d off it — the sequence should cross feasibility and reach plans the objective decides", ticks, infeasible, capped, unique)
			}
		})
	}
}
