package allocator

import (
	"math"
	"sync"
	"time"

	"diffserve/internal/milp"
)

// MILPAllocator is the DiffServe resource allocator: it formulates the
// paper's optimization (maximize the confidence threshold subject to
// latency, throughput, and budget constraints) as a mixed-integer
// linear program and solves it with the internal branch-and-bound
// solver — one MILP per Allocate, at the threshold a closed-form
// feasibility oracle picks (see Allocate).
//
// The allocator holds one milp.IncrementalSolver for its lifetime:
// successive control ticks pose nearly identical problems of the same
// shape, so the solver warm-starts each from the previous tick's
// optimal basis and incumbent instead of re-deriving everything from
// scratch. Allocate is safe for concurrent use; calls serialize on the
// solver.
type MILPAllocator struct {
	cfg Config

	mu  sync.Mutex
	inc milp.IncrementalSolver
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

// Config returns the allocator's effective configuration.
func (a *MILPAllocator) Config() Config { return a.cfg }

// SolveStats returns the cumulative solver path counters (warm vs
// cold LP solves, pivots, branch-and-bound nodes) for benchmarks and
// controller telemetry.
func (a *MILPAllocator) SolveStats() milp.IncrementalStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inc.Stats()
}

// Allocate implements Allocator.
//
// The paper's optimization maximizes the confidence threshold t
// subject to Eqs. 1-4. Feasibility is monotone in t (a higher
// threshold only increases the heavy pool's required throughput), and
// whether a threshold is feasible at all has a closed form (feasible
// below), so the allocator bisects the discretized threshold grid on
// that oracle and then solves one mixed-integer subproblem, at the
// largest feasible threshold, over
//
//	w1[b]  (|B1| integers) — light workers running batch b
//	w2[b]  (|B2| integers) — heavy workers running batch b
//	y1[b]  (|B1| binaries) — light batch selector
//	y2[b]  (|B2| binaries) — heavy batch selector
//	h      (continuous)    — normalized capacity headroom
//
// with the internal branch-and-bound solver. The single-batch-
// size-per-pool rule is enforced by w_i[b] <= S·y_i[b] and sum y_i = 1;
// worker-count products x_i·T_i(b_i) linearize as sum_b w_i[b]·T_i(b);
// the latency constraint selects per-batch execution+queueing costs
// through the y binaries. The subproblem's objective
// maximizes the minimum normalized capacity headroom h
// (sum w1·T1 >= h·D and sum w2·T2 >= h·f·D), which co-optimizes batch
// sizes for throughput and spreads every available worker across the
// pools so neither runs at razor-thin utilization.
func (a *MILPAllocator) Allocate(obs Observation) (Plan, error) {
	start := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	c := &a.cfg
	demand := math.Max(obs.Demand, 0) * c.OverProvision
	ts, fs := thresholdGrid(c)
	plan, err := a.solveDownFrom(obs, demand, ts, fs, searchThreshold(c, obs, demand, fs))
	if err != nil {
		return Plan{}, err
	}
	plan.SolveTime = time.Since(start)
	return plan, nil
}

// searchThreshold bisects the threshold grid on the feasibility oracle
// and returns the largest feasible index — 0 when the oracle rejects
// even that, so declaring the tick infeasible is left to the solver.
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

// solveDownFrom solves the MILP at grid index j. The oracle and the
// solver evaluate the same rows in different floating-point order and
// under different tolerances, so on a knife edge they can disagree; if
// the solver calls j infeasible it steps down the grid, solving, until
// an index is feasible, and returns the best-effort plan when none is.
func (a *MILPAllocator) solveDownFrom(obs Observation, demand float64, ts, fs []float64, j int) (Plan, error) {
	for ; j >= 0; j-- {
		plan, ok, err := a.solveAtThreshold(obs, demand, ts[j], fs[j])
		if err != nil || ok {
			return plan, err
		}
	}
	return bestEffortPlan(&a.cfg), nil
}

// headroomCap bounds the headroom variable h so the LP stays bounded.
// Once both pools reach it (demand around 1 QPS and below on 16
// workers) the objective no longer tells batch sizes apart.
const headroomCap = 20

// solveAtThreshold solves the fixed-threshold MILP subproblem.
func (a *MILPAllocator) solveAtThreshold(obs Observation, demand, t, f float64) (Plan, bool, error) {
	c := &a.cfg
	lightBs, heavyBs := batchCandidates(c)
	nB1, nB2 := len(lightBs), len(heavyBs)
	// Variable layout offsets.
	w1 := 0
	w2 := w1 + nB1
	y1 := w2 + nB2
	y2 := y1 + nB1
	h := y2 + nB2
	nVars := h + 1

	S := float64(c.TotalWorkers)
	obj := make([]float64, nVars)
	obj[h] = 1
	// Tiny bonus per allocated worker so spare devices beyond the
	// headroom cap still get used, weighted against the heavy pool so
	// ties leave capacity on the cheap pool.
	for b := 0; b < nB1; b++ {
		obj[w1+b] = 1e-4
	}
	for b := 0; b < nB2; b++ {
		obj[w2+b] = 9e-5
	}

	upper := make([]float64, nVars)
	integer := make([]bool, nVars)
	for b := 0; b < nB1; b++ {
		upper[w1+b] = S
		integer[w1+b] = true
		upper[y1+b] = 1
		integer[y1+b] = true
	}
	for b := 0; b < nB2; b++ {
		upper[w2+b] = S
		integer[w2+b] = true
		upper[y2+b] = 1
		integer[y2+b] = true
	}
	upper[h] = headroomCap

	var cons []milp.Constraint
	row := func() []float64 { return make([]float64, nVars) }

	// sum_b y1[b] == 1 and sum_b y2[b] == 1.
	r := row()
	for b := 0; b < nB1; b++ {
		r[y1+b] = 1
	}
	cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.EQ, RHS: 1, Name: "one-light-batch"})
	r = row()
	for b := 0; b < nB2; b++ {
		r[y2+b] = 1
	}
	cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.EQ, RHS: 1, Name: "one-heavy-batch"})

	// w_i[b] <= S * y_i[b]: workers only on the selected batch size.
	for b := 0; b < nB1; b++ {
		r = row()
		r[w1+b] = 1
		r[y1+b] = -S
		cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.LE, RHS: 0, Name: "light-batch-link"})
	}
	for b := 0; b < nB2; b++ {
		r = row()
		r[w2+b] = 1
		r[y2+b] = -S
		cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.LE, RHS: 0, Name: "heavy-batch-link"})
	}

	// Light throughput (Eq. 2): sum_b w1[b]·T1(b) >= D'.
	r = row()
	for b, bs := range lightBs {
		r[w1+b] = lightThroughput(c, bs)
	}
	cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.GE, RHS: demand, Name: "light-throughput"})

	// Keep at least one light worker warm so arrivals always have an
	// entry point even when the demand estimate dips to zero.
	r = row()
	for b := 0; b < nB1; b++ {
		r[w1+b] = 1
	}
	cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.GE, RHS: 1, Name: "min-light"})

	// Heavy throughput (Eq. 3): sum_b w2[b]·T2(b) >= D'·f.
	r = row()
	for b, bs := range heavyBs {
		r[w2+b] = heavyThroughput(c, bs)
	}
	cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.GE, RHS: demand * f, Name: "heavy-throughput"})

	// Budget (Eq. 4): sum w1 + sum w2 <= S.
	r = row()
	for b := 0; b < nB1; b++ {
		r[w1+b] = 1
	}
	for b := 0; b < nB2; b++ {
		r[w2+b] = 1
	}
	cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.LE, RHS: S, Name: "budget"})

	// Latency (Eq. 1): sum_b y1[b]·(e1+q1)(b) + sum_b y2[b]·(e2+q2)(b) <= L.
	r = row()
	for b, bs := range lightBs {
		q1, _ := queueDelays(c, obs, bs, heavyBs[0])
		r[y1+b] = lightExec(c, bs) + q1
	}
	for b, bs := range heavyBs {
		_, q2 := queueDelays(c, obs, lightBs[0], bs)
		r[y2+b] = heavyExec(c, bs) + q2
	}
	cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.LE, RHS: c.SLO, Name: "latency"})

	// Headroom rows: sum w1·T1 >= h·D and sum w2·T2 >= h·f·D.
	r = row()
	for b, bs := range lightBs {
		r[w1+b] = lightThroughput(c, bs)
	}
	r[h] = -math.Max(demand, 0.5)
	cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.GE, RHS: 0, Name: "light-headroom"})
	// Emitted even when demand*f == 0 (where it is trivially satisfied)
	// so the problem shape is identical at every threshold and the
	// incremental solver's warm state survives from tick to tick.
	r = row()
	for b, bs := range heavyBs {
		r[w2+b] = heavyThroughput(c, bs)
	}
	r[h] = -demand * f
	cons = append(cons, milp.Constraint{Coeffs: r, Rel: milp.GE, RHS: 0, Name: "heavy-headroom"})

	prob := &milp.Problem{
		Sense:       milp.Maximize,
		Objective:   obj,
		Constraints: cons,
		Upper:       upper,
		Integer:     integer,
		Initial:     a.warmStart(obs, demand, f, nVars, w1, w2, y1, y2, h),
		NodeLimit:   c.NodeLimit,
	}
	sol, err := a.inc.Solve(prob)
	if err != nil {
		return Plan{}, false, err
	}
	// StatusNodeLimit is a best-effort feasible integral plan: the
	// node budget ran out before proving optimality. A control tick
	// needs *a* plan, so accept it like an optimal one.
	if sol.Status != milp.StatusOptimal && sol.Status != milp.StatusNodeLimit {
		return Plan{}, false, nil
	}

	plan := Plan{Feasible: true, Threshold: t, DeferFraction: f}
	for b, bs := range lightBs {
		if sol.X[y1+b] > 0.5 {
			plan.LightBatch = bs
		}
		plan.LightWorkers += int(math.Round(sol.X[w1+b]))
	}
	for b, bs := range heavyBs {
		if sol.X[y2+b] > 0.5 {
			plan.HeavyBatch = bs
		}
		plan.HeavyWorkers += int(math.Round(sol.X[w2+b]))
	}
	return plan, true, nil
}

// admit is the closed-form admissibility test of one batch pair
// (b1, b2) in the fixed-threshold subproblem: the pair must meet the
// latency row (Eq. 1), and the fewest workers that carry the demand —
// x1 = max(1, ceil(D'/T1(b1))) light (Eq. 2 and the min-light row),
// x2 = ceil(D'·f/T2(b2)) heavy (Eq. 3) — must fit the budget (Eq. 4).
// Each pool runs a single batch size, so the subproblem is feasible
// exactly when some pair is admitted; warmStart and the feasibility
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
	lightBs, heavyBs := batchCandidates(c)
	for _, b1 := range lightBs {
		for _, b2 := range heavyBs {
			if _, _, ok := admit(c, obs, demand, f, b1, b2); ok {
				return true
			}
		}
	}
	return false
}

// warmStart builds an analytic candidate solution for the fixed-
// threshold subproblem — the greedy allocation the grid solver would
// produce, with leftover workers distributed to balance headroom.
// A feasible warm start lets branch-and-bound prune from node one;
// returning nil (no feasible greedy point) is harmless.
func (a *MILPAllocator) warmStart(obs Observation, demand, f float64, nVars, w1, w2, y1, y2, h int) []float64 {
	c := &a.cfg
	lightBs, heavyBs := batchCandidates(c)
	bestH := -1.0
	var best []float64
	for bi1, b1 := range lightBs {
		for bi2, b2 := range heavyBs {
			x1, x2, ok := admit(c, obs, demand, f, b1, b2)
			if !ok {
				continue
			}
			t1, t2 := lightThroughput(c, b1), heavyThroughput(c, b2)
			// Distribute spare workers to the pool with less headroom.
			dl := math.Max(demand, 0.5)
			dh := demand * f
			for spare := c.TotalWorkers - x1 - x2; spare > 0; spare-- {
				hl := float64(x1) * t1 / dl
				hh := math.Inf(1)
				if dh > 0 {
					hh = float64(x2) * t2 / dh
				}
				if hh < hl {
					x2++
				} else {
					x1++
				}
			}
			hl := float64(x1) * t1 / dl
			hh := math.Inf(1)
			if dh > 0 {
				hh = float64(x2) * t2 / dh
			}
			hv := math.Min(headroomCap, math.Min(hl, hh))
			if hv > bestH {
				bestH = hv
				x := make([]float64, nVars)
				x[w1+bi1] = float64(x1)
				x[w2+bi2] = float64(x2)
				x[y1+bi1] = 1
				x[y2+bi2] = 1
				x[h] = hv
				best = x
			}
		}
	}
	return best
}

// GridAllocator solves the same optimization by exhaustive enumeration
// of (threshold, light batch, heavy batch) with analytically minimal
// worker counts. It exists to cross-validate the MILP formulation and
// as the ablation comparator for solver strategy.
type GridAllocator struct {
	cfg Config
}

// NewGrid constructs the exhaustive-search allocator.
func NewGrid(cfg Config) (*GridAllocator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &GridAllocator{cfg: cfg.withDefaults()}, nil
}

// Name implements Allocator.
func (a *GridAllocator) Name() string { return "diffserve-grid" }

// Allocate implements Allocator.
func (a *GridAllocator) Allocate(obs Observation) (Plan, error) {
	start := time.Now()
	c := &a.cfg
	demand := math.Max(obs.Demand, 0) * c.OverProvision
	lightBs, heavyBs := batchCandidates(c)
	ts, fs := thresholdGrid(c)

	best := Plan{Feasible: false}
	found := false
	// Scan thresholds descending: the first feasible is optimal in t;
	// among equal t prefer fewer heavy workers (matching the MILP
	// tie-break).
	for j := len(ts) - 1; j >= 0 && !found; j-- {
		type cand struct {
			plan  Plan
			heavy int
		}
		var bestCand *cand
		for _, b1 := range lightBs {
			for _, b2 := range heavyBs {
				q1, q2 := queueDelays(c, obs, b1, b2)
				if lightExec(c, b1)+q1+heavyExec(c, b2)+q2 > c.SLO+1e-12 {
					continue
				}
				x1 := int(math.Ceil(demand / lightThroughput(c, b1)))
				if x1 < 1 {
					x1 = 1
				}
				need := demand * fs[j]
				x2 := 0
				if need > 0 {
					x2 = int(math.Ceil(need / heavyThroughput(c, b2)))
				}
				if x1+x2 > c.TotalWorkers {
					continue
				}
				p := Plan{
					Threshold: ts[j], DeferFraction: fs[j],
					LightWorkers: x1, HeavyWorkers: x2,
					LightBatch: b1, HeavyBatch: b2,
					Feasible: true,
				}
				if bestCand == nil || x2 < bestCand.heavy {
					bestCand = &cand{plan: p, heavy: x2}
				}
			}
		}
		if bestCand != nil {
			best = bestCand.plan
			found = true
		}
	}
	if !found {
		best = bestEffortPlan(c)
	}
	best.SolveTime = time.Since(start)
	return best, nil
}
