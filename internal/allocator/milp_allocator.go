package allocator

import (
	"math"
	"time"

	"diffserve/internal/model"
)

// MILPAllocator is the DiffServe resource allocator: it solves the
// paper's optimization (maximize the confidence threshold subject to
// latency, throughput, and budget constraints; see Allocate) exactly,
// at the threshold a closed-form feasibility oracle picks, by
// enumerating the fixed-threshold program's batch pairs and worker
// splits. The program is the paper's mixed-integer linear program
// (§3.3, solved with Gurobi in §4.5); at DiffServe's size — two pools,
// a handful of batch sizes, S workers — enumeration is exact and takes
// microseconds. The allocator holds no state between calls, so
// Allocate is a pure function of the observation and safe for
// concurrent use.
type MILPAllocator struct {
	cfg Config
}

// NewMILP constructs the DiffServe MILP allocator.
func NewMILP(cfg Config) (*MILPAllocator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &MILPAllocator{cfg: cfg.withDefaults()}, nil
}

// Name implements Allocator.
func (a *MILPAllocator) Name() string { return "diffserve-milp" }

// Allocate implements Allocator.
//
// The paper's optimization maximizes the confidence threshold t
// subject to Eqs. 1-4. Feasibility is monotone in t (a higher
// threshold only increases the heavy pool's required throughput), and
// whether a threshold is feasible at all has a closed form (feasible
// below), so the allocator bisects the discretized threshold grid on
// that oracle and then solves one fixed-threshold subproblem, at the
// largest feasible threshold, over
//
//	b1, b2 — the light and heavy pools' batch sizes (one per pool)
//	w1, w2 — the light and heavy worker counts (integers)
//
// subject to Eq. 1 (latency, a function of (b1, b2) alone), Eqs. 2-3
// (w1·T1(b1) >= D', w2·T2(b2) >= D'·f, and w1 >= 1 so arrivals always
// have an entry point) and Eq. 4 (w1 + w2 <= S), maximizing
//
//	min(headroomCap, w1·T1/max(D', 0.5), w2·T2/(D'·f)) + 1e-4·w1 + 9e-5·w2
//
// — the minimum normalized capacity headroom, which co-optimizes batch
// sizes for throughput and spreads the workers across the pools so
// neither runs at razor-thin utilization, plus a tiny per-worker bonus
// that places spare devices beyond the headroom cap, weighted so ties
// leave capacity on the cheap pool. (The heavy term drops out when
// D'·f = 0.) enumerate solves it exactly; when even the lowest
// threshold is infeasible the plan is bestEffortPlan.
func (a *MILPAllocator) Allocate(obs Observation) (Plan, error) {
	start := time.Now()
	c := &a.cfg
	demand := math.Max(obs.Demand, 0) * c.OverProvision
	ts, fs := thresholdGrid(c)
	j := searchThreshold(c, obs, demand, fs)
	plan, ok := enumerate(c, obs, demand, ts[j], fs[j])
	if !ok {
		plan = bestEffortPlan(c)
	}
	plan.SolveTime = time.Since(start)
	return plan, nil
}

// searchThreshold bisects the threshold grid on the feasibility oracle
// and returns the largest feasible index — 0 when the oracle rejects
// even that, in which case enumerate finds no plan either.
func searchThreshold(c *Config, obs Observation, demand float64, fs []float64) int {
	hi := len(fs) - 1
	if !feasible(c, obs, demand, fs[0]) {
		return 0
	}
	if feasible(c, obs, demand, fs[hi]) {
		return hi
	}
	lo := 0 // feasible at lo, infeasible at hi
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if feasible(c, obs, demand, fs[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// headroomCap bounds the headroom term of the objective. Once both
// pools reach it (demand around 1 QPS and below on 16 workers) the
// objective no longer tells batch sizes apart, and enumerate's scan
// order decides.
const headroomCap = 20

// enumerate solves the fixed-threshold subproblem at threshold t
// (deferral fraction f) exactly: it scans every batch pair admit
// accepts and, for each, every light worker count w1 from admit's
// minimum x1 up to S - x2, giving the heavy pool the rest. Using the
// whole budget loses nothing: the objective rises strictly with w2 at
// fixed w1, so no optimum leaves a worker idle. Of several optima it
// returns the first in ascending (b1, b2, w1) scan order, b1 and b2 in
// the order of model.StandardBatchSizes. ok is false when no pair is
// admitted.
func enumerate(c *Config, obs Observation, demand, t, f float64) (plan Plan, ok bool) {
	dl, dh := math.Max(demand, 0.5), demand*f
	best := 0.0
	for _, b1 := range model.StandardBatchSizes {
		for _, b2 := range model.StandardBatchSizes {
			x1, x2, admitted := admit(c, obs, demand, f, b1, b2)
			if !admitted {
				continue
			}
			t1, t2 := lightThroughput(c, b1), heavyThroughput(c, b2)
			for w1 := x1; w1 <= c.TotalWorkers-x2; w1++ {
				w2 := c.TotalWorkers - w1
				h := math.Min(headroomCap, float64(w1)*t1/dl)
				if dh > 0 {
					h = math.Min(h, float64(w2)*t2/dh)
				}
				if obj := h + 1e-4*float64(w1) + 9e-5*float64(w2); !ok || obj > best {
					best, ok = obj, true
					plan = Plan{
						Threshold: t, DeferFraction: f,
						LightWorkers: w1, HeavyWorkers: w2,
						LightBatch: b1, HeavyBatch: b2,
						Feasible: true,
					}
				}
			}
		}
	}
	return plan, ok
}

// admit is the closed-form admissibility test of one batch pair
// (b1, b2) in the fixed-threshold subproblem: the pair must meet the
// latency row (Eq. 1), and the fewest workers that carry the demand —
// x1 = max(1, ceil(D'/T1(b1))) light (Eq. 2 and the min-light row),
// x2 = ceil(D'·f/T2(b2)) heavy (Eq. 3) — must fit the budget (Eq. 4).
// Each pool runs a single batch size, so the subproblem is feasible
// exactly when some pair is admitted; enumerate and the feasibility
// oracle both go through here so the two cannot drift apart.
func admit(c *Config, obs Observation, demand, f float64, b1, b2 int) (x1, x2 int, ok bool) {
	q1, q2 := queueDelays(c, obs, b1, b2)
	if lightExec(c, b1)+q1+heavyExec(c, b2)+q2 > c.SLO {
		return 0, 0, false
	}
	x1 = int(math.Ceil(demand / lightThroughput(c, b1)))
	if x1 < 1 {
		x1 = 1
	}
	if demand*f > 0 {
		x2 = int(math.Ceil(demand * f / heavyThroughput(c, b2)))
	}
	return x1, x2, x1+x2 <= c.TotalWorkers
}

// feasible is the threshold search's oracle: whether the subproblem at
// deferral fraction f has any solution, answered without the solver.
func feasible(c *Config, obs Observation, demand, f float64) bool {
	for _, b1 := range model.StandardBatchSizes {
		for _, b2 := range model.StandardBatchSizes {
			if _, _, ok := admit(c, obs, demand, f, b1, b2); ok {
				return true
			}
		}
	}
	return false
}
