// Package loadbalancer is DiffServe's data-path policy (paper §3),
// written once for both of its drivers: the discrete-event simulator
// (internal/system) and the cluster runtime's LBServer
// (internal/cluster). It decides which pool an arrival joins (Decide:
// light first in cascade mode, a single pool for the Clipper
// baselines, a random split for Proteus), which queued queries can no
// longer make their SLO and when a worker gets a batch (Pool), whether
// a light result is confident enough to serve (Defers), and how a
// resolved query is recorded and counted for the controller (Ledger).
//
// The package holds no clock, lock or goroutine: every call takes the
// trace time it acts at, and a driver that shares the state between
// goroutines guards it with its own locks.
package loadbalancer

import (
	"diffserve/internal/imagespace"
	"diffserve/internal/metrics"
	"diffserve/internal/queueing"
	"diffserve/internal/stats"
)

// Mode is the routing policy.
type Mode int

// Routing policies.
const (
	// ModeCascade routes every query to the light pool first; the
	// discriminator decides deferral (DiffServe and its ablations).
	ModeCascade Mode = iota
	// ModeAllLight serves everything from the light pool
	// (Clipper-Light).
	ModeAllLight
	// ModeAllHeavy serves everything from the heavy pool
	// (Clipper-Heavy).
	ModeAllHeavy
	// ModeRandomSplit routes to the heavy pool with the configured
	// probability, query-agnostically (Proteus).
	ModeRandomSplit
)

func (m Mode) String() string {
	switch m {
	case ModeCascade:
		return "cascade"
	case ModeAllLight:
		return "all-light"
	case ModeAllHeavy:
		return "all-heavy"
	case ModeRandomSplit:
		return "random-split"
	}
	return "unknown"
}

// ShardOf maps a query ID to one of shards partitions of the query
// stream. It is the single source of truth for the sharded LB tier's
// consistent partitioning: a pure FNV-1a hash of the ID, so the
// assignment is identical across processes, transports, and runs —
// every component (frontend, workers, tests) that needs to know which
// LB shard owns a query computes it locally with no coordination.
// shards <= 1 always maps to shard 0. The frontend sends a query's
// submit and its completion to this shard and no other.
func ShardOf(id, shards int) int {
	if shards <= 1 {
		return 0
	}
	// FNV-1a over the ID's 8 little-endian bytes.
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < 8; i++ {
		h ^= uint64(id) >> (8 * i) & 0xff
		h *= 1099511628211 // FNV-1a prime
	}
	return int(h % uint64(shards))
}

// PoolID identifies a destination pool.
type PoolID int

// Destination pools.
const (
	PoolLight PoolID = iota
	PoolHeavy
)

// Pool is one pool's queue with the two numbers that decide what is
// shed from it.
type Pool struct {
	*queueing.FIFO
	// MinExec is the pool's batch-1 execution time: a query that cannot
	// finish even if started now with minimal service is shed.
	MinExec float64
	// SLO is the latency deadline.
	SLO float64
}

// arrivalWindow is the trace-seconds window a pool's arrival rate is
// estimated over.
const arrivalWindow = 10

// NewPool returns an empty pool with the given batch-1 execution time
// and deadline, its arrival rate estimated over arrivalWindow.
func NewPool(minExec, slo float64) *Pool {
	return &Pool{FIFO: queueing.NewFIFO(arrivalWindow), MinExec: minExec, SLO: slo}
}

// Shed removes and returns the queued queries that can no longer meet
// their deadline even if started at now with minimal service.
func (p *Pool) Shed(now float64) []queueing.Item {
	return p.DropWhere(func(it queueing.Item) bool {
		return now+p.MinExec > it.Arrival+p.SLO
	})
}

// Dequeue sheds, then hands out whatever is queued, up to max queries,
// appended to dst: a worker that asks for a batch never waits for one
// to fill.
func (p *Pool) Dequeue(now float64, max int, dst []queueing.Item) (shed, batch []queueing.Item) {
	return p.Shed(now), p.PopAppend(now, max, dst)
}

// Defers is the cascade's verdict on a finished generation: a light
// result whose confidence is under the threshold goes to the heavy
// pool; everything else is served.
func Defers(mode Mode, pool PoolID, conf, threshold float64) bool {
	return mode == ModeCascade && pool == PoolLight && conf < threshold
}

// Recorder receives a ledger's records. The simulator gives its ledger
// a full metrics.Collector; the cluster's LBServer gives it a
// metrics.Tally, which keeps no record, so a long-running LB holds
// nothing per query.
type Recorder interface {
	Record(metrics.QueryRecord)
}

// Ledger resolves queries: it builds the completed or dropped record,
// hands it to its recorder, and keeps the counts the controller
// polls. Resolving a query twice is the caller's to prevent.
type Ledger struct {
	// SLO is the latency deadline stamped on every record.
	SLO float64
	// Col receives every record. A served record's Features are the
	// caller's slice: the simulator's immutable image, the LB's decode
	// buffer, which its Tally only folds into moments.
	Col Recorder

	arrivals, violations int // since the last Tick
	completed, dropped   int // lifetime
}

// Arrive counts n new arrivals toward the controller's demand estimate.
func (l *Ledger) Arrive(n int) { l.arrivals += n }

// Complete records a query served at now by the given pool — a heavy
// serve counts as deferred — with the image it got and the light
// image's confidence, and returns the record.
func (l *Ledger) Complete(it queueing.Item, now float64, pool PoolID, img imagespace.Image, conf float64) metrics.QueryRecord {
	rec := metrics.QueryRecord{
		ID:         it.ID,
		Arrival:    it.Arrival,
		Completion: now,
		Deadline:   it.Arrival + l.SLO,
		Deferred:   pool == PoolHeavy,
		ServedBy:   img.Variant,
		Confidence: conf,
		Features:   img.Features,
		Artifact:   img.Artifact,
	}
	if rec.Violated() {
		l.violations++
	}
	l.Col.Record(rec)
	l.completed++
	return rec
}

// Drop records a query as shed.
func (l *Ledger) Drop(it queueing.Item) {
	l.Col.Record(metrics.QueryRecord{
		ID:       it.ID,
		Arrival:  it.Arrival,
		Deadline: it.Arrival + l.SLO,
		Dropped:  true,
	})
	l.violations++
	l.dropped++
}

// Tick returns the arrivals and SLO violations since the previous call
// and resets both.
func (l *Ledger) Tick() (arrivals, violations int) {
	arrivals, violations = l.arrivals, l.violations
	l.arrivals, l.violations = 0, 0
	return arrivals, violations
}

// Counts returns the lifetime completed and dropped totals.
func (l *Ledger) Counts() (completed, dropped int) { return l.completed, l.dropped }

// LB is the simulator's load balancer: the two pools plus the routing
// policy's state.
type LB struct {
	mode      Mode
	splitProb float64
	rng       *stats.RNG

	Light, Heavy *Pool
}

// New constructs a load balancer over the two pools.
func New(mode Mode, rng *stats.RNG, light, heavy *Pool) *LB {
	return &LB{mode: mode, rng: rng.Stream("lb"), Light: light, Heavy: heavy}
}

// ClampProb clamps a probability to [0, 1].
func ClampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// SetSplit updates the random-split heavy probability (Proteus mode).
// Values are clamped to [0, 1].
func (lb *LB) SetSplit(p float64) {
	lb.splitProb = ClampProb(p)
}

// Decide picks the pool an arrival joins under the routing policy.
// rng is consulted only in ModeRandomSplit (one Bernoulli draw per
// arrival); the other modes never touch it.
func Decide(mode Mode, splitProb float64, rng *stats.RNG) PoolID {
	switch mode {
	case ModeAllHeavy:
		return PoolHeavy
	case ModeRandomSplit:
		if rng.Bernoulli(splitProb) {
			return PoolHeavy
		}
		return PoolLight
	default: // ModeCascade, ModeAllLight
		return PoolLight
	}
}

// Route enqueues an arriving query and returns the pool it joined.
func (lb *LB) Route(now float64, it queueing.Item) PoolID {
	pool := Decide(lb.mode, lb.splitProb, lb.rng)
	lb.Queue(pool).Push(now, it)
	return pool
}

// Queue returns the pool with the given ID.
func (lb *LB) Queue(p PoolID) *Pool {
	if p == PoolHeavy {
		return lb.Heavy
	}
	return lb.Light
}

// Snapshot captures both queues for the controller.
type Snapshot struct {
	Light, Heavy queueing.Snapshot
}

// Snap builds the controller-facing snapshot at time now.
func (lb *LB) Snap(now float64) Snapshot {
	return Snapshot{Light: lb.Light.Snap(now), Heavy: lb.Heavy.Snap(now)}
}
