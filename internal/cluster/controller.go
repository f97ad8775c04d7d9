package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"diffserve/internal/allocator"
	"diffserve/internal/controller"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/worker"
)

// ControllerConfig parameterizes the cluster controller process.
type ControllerConfig struct {
	// Ctrl owns the allocator and demand estimation.
	Ctrl *controller.Controller
	// LB is the connection to the load balancer.
	LB LBConn
	// Workers are the control-plane connections to the workers.
	Workers []WorkerConn
	// Mode mirrors the LB's routing policy (decides whether plans set
	// a threshold or a split probability).
	Mode loadbalancer.Mode
	// Clock provides trace time.
	Clock *Clock
	// Shards is the count of LB shards the workers are pinned to (0 or
	// 1: no pinning — a single LB, or workers that pull
	// through the ShardedLB frontend, as the harness's do). Only
	// benchmark/'s control_tick pins workers: worker i to shard group
	// i mod Shards. Role assignment then stripes each plan across those
	// groups so every shard keeps at least one worker of every role the
	// plan uses: a shard whose partition of the query stream has no
	// light (or no heavy) worker would starve, which a global plan
	// never intends.
	// benchmark/ only: control.go (control_tick); item P deletes it.
	Shards int
	// Logf, when set, receives controller-loop events (stats misses,
	// the conservative failover, recovery). Nil discards them.
	Logf func(format string, args ...interface{})
}

// ControllerLoop polls runtime statistics, re-solves allocation, and
// pushes plans — the cluster analogue of the simulator's control tick.
// A push sends the LB's policy and each worker's configure only when
// the receiver may not hold it already (see applyLocked), so a steady
// plan costs no configure RPC at all.
type ControllerLoop struct {
	cfg ControllerConfig
	// mu serializes control ticks and plan applications: the periodic
	// Run loop and an explicit Apply may otherwise interleave, racing
	// the assignment cache and the controller's demand estimator.
	mu       sync.Mutex
	lastTick float64
	// lastPlan caches the most recently applied plan, the base of the
	// stats-blind fallback (conservativePlanLocked).
	lastPlan allocator.Plan
	hasPlan  bool
	// assigned caches the role each worker was last meant to have —
	// worker.AssignRoles' stability input, so ticks need no per-worker
	// stats round-trip. It records intent: whether the worker heard it
	// is acked's business.
	assigned []worker.Role
	// lbAcked and acked (per worker) record what each receiver last
	// acknowledged. Guarded by mu.
	lbAcked ackState[ConfigureLBRequest]
	acked   []ackState[ConfigureWorkerRequest]
	// stats-poll failure tracking (guarded by mu): statsMisses is the
	// consecutive run, conservative whether the blind-fallback plan is
	// currently applied.
	statsMisses  int
	conservative bool
}

// maxStatsMisses is the consecutive stats-poll-failure budget: after
// this many misses the loop stops trusting its stale plan and fails
// over to a conservative one (threshold and split forced to zero —
// every query served by the light pool — so a blind controller cannot
// keep deferring load it can no longer observe into the heavy pool).
const maxStatsMisses = 3

// NewControllerLoop constructs the control loop.
func NewControllerLoop(cfg ControllerConfig) *ControllerLoop {
	return &ControllerLoop{cfg: cfg}
}

func (c *ControllerLoop) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Plans returns the plans applied so far.
func (c *ControllerLoop) Plans() []controller.PlanAt { return c.cfg.Ctrl.Plans() }

// Run executes control ticks on the trace-time schedule t0 + k·interval
// until the context is cancelled, t0 being when Run starts. A caller
// that restarts the clock starts Run after the restart. Each tick
// (stats poll + allocation solve + plan push) runs on Run's goroutine.
// A slow tick — a stats poll or configure push waiting on the network
// — never shifts the schedule: every due time that fell while it ran
// is skipped. A late wake loses no tick: a due time that passed before
// its tick started runs at once (see advanceSchedule). (The paper
// likewise calls its MILP asynchronously.) Run returns once the tick
// in flight at cancellation has finished, so a caller that waits for
// Run may then read Plans.
func (c *ControllerLoop) Run(ctx context.Context) {
	interval := c.cfg.Ctrl.Interval()
	next, owed := c.cfg.Clock.Now(), 0
	for ctx.Err() == nil {
		if owed > 0 {
			owed--
		} else {
			if !c.cfg.Clock.WaitUntil(ctx, next, nil) {
				return
			}
			next += interval
		}
		start := c.cfg.Clock.Now()
		c.TickOnce(ctx)
		next, owed = advanceSchedule(next, owed, interval, start, c.cfg.Clock.Now())
	}
}

// advanceSchedule is Run's skip rule for one tick that ran over
// [start, end). next is the earliest due time on the schedule that has
// neither run nor been skipped, and owed counts due times that passed
// before a tick started and have not run yet. Due times before start
// join owed, so they run at once; those inside [start, end) are
// skipped. It returns next and owed after the tick.
func advanceSchedule(next float64, owed int, interval, start, end float64) (float64, int) {
	for ; next < start; next += interval {
		owed++
	}
	for next < end {
		next += interval
	}
	return next, owed
}

// TickOnce performs one control period: poll stats, solve, push.
//
// A failed stats poll is tolerated for maxStatsMisses-1 consecutive
// ticks — a transient wire fault should not perturb the plan — but
// not forever: past the budget the loop fails over to a conservative
// plan instead of steering the cluster with observations that may be
// arbitrarily stale. The first successful poll afterwards resumes
// normal planning.
func (c *ControllerLoop) TickOnce(ctx context.Context) {
	lbStats, err := c.cfg.LB.Stats(ctx)
	if err != nil {
		c.mu.Lock()
		c.statsMisses++
		misses := c.statsMisses
		failover := misses >= maxStatsMisses && !c.conservative && c.hasPlan
		if failover {
			c.conservative = true
			plan := c.conservativePlanLocked()
			c.logf("controller: %d consecutive stats-poll failures (%v): failing over to conservative plan", misses, err)
			c.applyLocked(ctx, plan)
		}
		c.mu.Unlock()
		if !failover {
			c.logf("controller: stats poll failed (%d consecutive): keeping previous plan: %v", misses, err)
		}
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.statsMisses > 0 {
		c.logf("controller: stats poll recovered after %d misses", c.statsMisses)
		c.statsMisses = 0
	}
	c.conservative = false
	elapsed := lbStats.Now - c.lastTick
	c.lastTick = lbStats.Now
	plan, err := c.cfg.Ctrl.Tick(lbStats.Now, controller.TickInput{
		Arrivals:         lbStats.ArrivalsSinceTick,
		ElapsedSeconds:   elapsed,
		LightQueueLen:    lbStats.LightQueueLen,
		HeavyQueueLen:    lbStats.HeavyQueueLen,
		LightArrivalRate: lbStats.LightArrivalRate,
		HeavyArrivalRate: lbStats.HeavyArrivalRate,
		SLOTimeouts:      lbStats.TimeoutsSinceTick,
	})
	if err != nil {
		return
	}
	c.applyLocked(ctx, plan)
}

// conservativePlanLocked derives the stats-blind fallback from the
// last applied plan: the worker layout is kept (reassigning roles
// blind would only thrash model reloads) but the cascade threshold
// and the random split are forced to zero, so every new query is
// served by the light pool. Deferral volume is the one knob the
// controller actively steers with stats it no longer has — freezing
// it at zero bounds heavy-pool load instead of trusting a stale
// estimate of it. Callers hold mu.
func (c *ControllerLoop) conservativePlanLocked() allocator.Plan {
	plan := c.lastPlan
	plan.Threshold = 0
	plan.DeferFraction = 0
	return plan
}

// Apply pushes a plan to the LB and workers. Worker role assignment
// prefers keeping existing roles to minimize model reloads.
func (c *ControllerLoop) Apply(ctx context.Context, plan allocator.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.applyLocked(ctx, plan)
}

// lossCounter is a conn that counts the connections it has lost: tcp
// conns, and ShardedLB over its shards. A process loses its configured
// state only by restarting, which drops every connection into it, so
// an unchanged count means it still holds what it acknowledged. A
// half-open connection to a crashed host counts once Go's default TCP
// keepalive (net.DialTimeout enables it: 15 s idle, then 9 probes 15 s
// apart) declares it dead. In-process conns and wrappers report 0.
type lossCounter interface{ connLosses() uint64 }

func connLosses(conn interface{}) uint64 {
	if l, ok := conn.(lossCounter); ok {
		return l.connLosses()
	}
	return 0
}

// ackState is what the loop knows one receiver holds: the request it
// last acknowledged, and its connection-loss count read before that
// send, so a loss racing the send shows as a mismatch later, never as
// an acknowledgement. The zero value (ok false) is unknown: never
// configured, or the last send failed or was cancelled.
type ackState[R comparable] struct {
	req    R
	losses uint64
	ok     bool
}

func (a ackState[R]) holds(req R, losses uint64) bool {
	return a.ok && a.req == req && a.losses == losses
}

// applyLocked is Apply's core. Callers hold mu.
//
// The LB policy and each worker's configure are sent only when the
// receiver may not hold them: when the request differs from the last
// one it acknowledged, when its last send failed or was cancelled (a
// failed RPC is logged, not retried: the next apply re-sends it), or
// when its connection dropped since that acknowledgement (lossCounter)
// — which heals a process restarted behind the same address on the
// next apply. Receivers treat an identical request as a no-op, so with
// no failures every process passes through exactly the states an
// every-apply re-send would have put it through.
func (c *ControllerLoop) applyLocked(ctx context.Context, plan allocator.Plan) {
	c.lastPlan, c.hasPlan = plan, true
	attempted, failed := 0, 0
	var firstErr error
	sent := func(err error) {
		attempted++
		if err == nil {
			return
		}
		if failed == 0 {
			firstErr = err
		}
		failed++
	}
	// Configure the LB policy first so new completions observe the
	// fresh threshold.
	split := 0.0
	if c.cfg.Mode == loadbalancer.ModeRandomSplit {
		split = plan.DeferFraction
	}
	lbReq := ConfigureLBRequest{Threshold: plan.Threshold, SplitProb: split}
	if losses := connLosses(c.cfg.LB); !c.lbAcked.holds(lbReq, losses) {
		err := c.cfg.LB.Configure(ctx, lbReq)
		sent(err)
		c.lbAcked = ackState[ConfigureLBRequest]{lbReq, losses, err == nil}
	}

	// Current roles come from the assignment cache (the controller is
	// the only writer of worker roles, so the cache is authoritative
	// and avoids a per-worker stats round-trip each tick).
	if len(c.assigned) != len(c.cfg.Workers) {
		c.assigned = make([]worker.Role, len(c.cfg.Workers)) // all idle
		c.acked = make([]ackState[ConfigureWorkerRequest], len(c.cfg.Workers))
	}

	var next []worker.Role
	if shards := c.cfg.Shards; shards > 1 {
		// Sharded LB tier: stripe the plan across the shard-pinned
		// worker groups (worker i serves shard i mod shards) so each
		// shard's partition of the query stream keeps both roles.
		groups := make([][]int, shards)
		for i := range c.assigned {
			s := i % shards
			groups[s] = append(groups[s], i)
		}
		sizes := make([]int, shards)
		for s, g := range groups {
			sizes[s] = len(g)
		}
		needLight, needHeavy := worker.FitPlan(len(c.assigned), plan.LightWorkers, plan.HeavyWorkers)
		lightQ, heavyQ := shardQuotas(needLight, needHeavy, sizes)
		next = make([]worker.Role, len(c.assigned))
		for s, g := range groups {
			cur := make([]worker.Role, len(g))
			for j, i := range g {
				cur[j] = c.assigned[i]
			}
			sub := worker.AssignRoles(cur, lightQ[s], heavyQ[s])
			for j, i := range g {
				next[i] = sub[j]
			}
		}
	} else {
		next = worker.AssignRoles(c.assigned, plan.LightWorkers, plan.HeavyWorkers)
	}
	var unknown []int
	for i, conn := range c.cfg.Workers {
		req := ConfigureWorkerRequest{Role: next[i].String(), Batch: plan.LightBatch}
		if next[i] == worker.RoleHeavy {
			req.Batch = plan.HeavyBatch
		}
		losses := connLosses(conn)
		if c.acked[i].holds(req, losses) {
			continue
		}
		err := conn.Configure(ctx, req)
		sent(err)
		c.acked[i] = ackState[ConfigureWorkerRequest]{req, losses, err == nil}
		if err != nil {
			unknown = append(unknown, i)
		}
	}
	c.assigned = next
	if failed > 0 {
		var resend []string
		if !c.lbAcked.ok { // its send just failed
			resend = append(resend, "the LB policy")
		}
		if unknown != nil {
			resend = append(resend, fmt.Sprintf("workers %v", unknown))
		}
		c.logf("controller: plan half-applied: %d of %d configure RPCs failed (first: %v); the next apply re-sends %s", failed, attempted, firstErr, strings.Join(resend, " and "))
	}
}

// shardQuotas splits a global role plan across shard-pinned worker
// groups. Each role is divided proportionally to group size (largest
// remainder, ties to the lower shard for determinism), group capacity
// overflows are repaired by moving the excess to shards with spare
// workers, and finally every shard is guaranteed at least one worker
// of each role the plan uses at all — stealing from the shard's other
// role when it has workers to spare — because a shard-pinned
// partition with zero light (or zero heavy) workers starves its share
// of the query stream. The per-shard totals may therefore deviate
// from the plan by a worker or two near the minimum; the aggregate
// never exceeds the group capacities.
func shardQuotas(needLight, needHeavy int, sizes []int) (light, heavy []int) {
	n := len(sizes)
	total := 0
	for _, s := range sizes {
		total += s
	}
	split := func(need int) []int {
		q := make([]int, n)
		if total == 0 || need <= 0 {
			return q
		}
		rem := make([]float64, n)
		given := 0
		for i, s := range sizes {
			exact := float64(need) * float64(s) / float64(total)
			q[i] = int(exact)
			rem[i] = exact - float64(q[i])
			given += q[i]
		}
		for given < need {
			best := -1
			for i := 0; i < n; i++ {
				if q[i] >= sizes[i] {
					continue
				}
				if best < 0 || rem[i] > rem[best] {
					best = i
				}
			}
			if best < 0 {
				break
			}
			q[best]++
			rem[best] = -1
			given++
		}
		return q
	}
	light, heavy = split(needLight), split(needHeavy)

	// Capacity repair: the two roles were split independently, so a
	// group's quotas can sum past its size. Move the excess unit of
	// the group's larger role to the first shard with spare room (or
	// drop it — only reachable when the plan exceeds total capacity,
	// which worker.FitPlan already clamps away).
	for i := 0; i < n; i++ {
		for light[i]+heavy[i] > sizes[i] {
			role := light
			if heavy[i] > light[i] {
				role = heavy
			}
			role[i]--
			for j := 0; j < n; j++ {
				if light[j]+heavy[j] < sizes[j] {
					role[j]++
					break
				}
			}
		}
	}

	// Starvation guard: every shard the plan can cover gets at least
	// one worker of each role in use. The unit comes from the richest
	// shard of that role when one has more than a single worker
	// (preserving the plan's totals); otherwise the role grows by one
	// at the expense of the shard's other role, because a starved
	// partition is strictly worse than a plan deviated by one worker.
	ensure := func(role, other []int, need int) {
		for i := 0; i < n; i++ {
			if need <= 0 || role[i] > 0 || sizes[i] == 0 {
				continue
			}
			freedOther := false
			if role[i]+other[i] >= sizes[i] {
				if other[i] > 1 {
					other[i]--
					freedOther = true
				} else {
					continue // one-worker group: the other role keeps it
				}
			}
			donor := -1
			for j := 0; j < n; j++ {
				if role[j] > 1 && (donor < 0 || role[j] > role[donor]) {
					donor = j
				}
			}
			if donor >= 0 {
				role[donor]--
			}
			role[i]++
			if freedOther {
				// The unit stolen from the shard's other role still
				// belongs to the plan: re-grant it to a shard with
				// spare capacity rather than silently idling a worker.
				for j := 0; j < n; j++ {
					if light[j]+heavy[j] < sizes[j] {
						other[j]++
						break
					}
				}
			}
		}
	}
	ensure(light, heavy, needLight)
	ensure(heavy, light, needHeavy)
	return light, heavy
}
