// Package cluster is the real-process runtime of DiffServe: a load
// balancer, GPU workers, and a controller, mirroring the paper's
// testbed implementation (§4.1, artifact Appendix A).
//
// Components are wired through a pluggable transport seam with three
// layers:
//
//   - wire messages (QueryMsg, PullRequest/Response, CompleteRequest,
//     stats and configure messages) — plain structs with stable
//     payload semantics;
//   - one codec on the wire, CodecBinary — hand-rolled and
//     length-prefixed, with no reflection on the hot path; CodecJSON
//     encodes the same messages through their json tags and is the
//     reference the parity tests, the fuzzers and diffvet's
//     codecparity analyzer hold the binary codec against;
//   - a Transport / LBConn / WorkerConn abstraction over how messages
//     move, with two implementations: framed TCP (persistent
//     multiplexed connections carrying length-prefixed binary frames —
//     what every standalone binary speaks), or an in-process fast path
//     that dispatches direct calls with zero serialization so the
//     harness can validate at the highest timescale factors.
//
// The data path is pull-based and latency-conscious: clients submit
// query batches asynchronously and long-poll for results; idle
// workers long-poll the load balancer for work (the pull blocks
// server-side until a batch is dispatchable or a deadline passes,
// instead of sleep-and-retry).
//
// # Buffer ownership
//
// The wire path is allocation-free in steady state, which makes slice
// ownership part of the API contract:
//
//   - Requests (SubmitRequest, CompleteRequest): the caller keeps
//     ownership of every slice it passes in. The server copies (or
//     interns into the metrics collector's append-only arena) anything
//     it retains, so callers may reuse or overwrite request buffers the
//     moment the call returns.
//   - Responses (PullInto, PollResultsInto): the caller supplies the
//     response struct and its slices are decode targets. The caller
//     owns their contents only until its next *Into call on the same
//     struct, which overwrites them in place. Callers that retain
//     results past that point (or poll into a shared struct from two
//     goroutines) must copy.
//   - Pooled decodes (the TCP server's dispatch path): messages
//     acquired from the package pools are owned by exactly one
//     goroutine and returned via ReleaseMessage; released storage is
//     recycled into later decodes, so retaining any slice past release
//     is a use-after-free. The poolpoison build tag fills released
//     buffers with NaN sentinels so that class of bug fails loudly
//     under test.
//
// Model execution is simulated by sleeping for the profiled latency
// (the artifact's --do_simulate mode) scaled by a configurable
// timescale, so a six-minute trace can replay in seconds while
// preserving all queuing dynamics. All components share the same
// experiment seed, so worker processes regenerate identical images and
// confidences for a given query ID — exactly as the simulator does.
//
// Architecturally the cluster matches the discrete-event simulator:
// pool queues live at the load balancer and idle workers pull batches,
// which keeps the two implementations directly comparable (§4.3's
// simulator-vs-testbed validation).
package cluster

import (
	"context"
	"sync"
	"time"
)

// QueryMsg is a query submission.
type QueryMsg struct {
	ID int `json:"id"`
	// Arrival is the trace-time arrival in seconds (assigned by the
	// load balancer if zero).
	Arrival float64 `json:"arrival"`
}

// QueryResponse is returned to the client when its query completes.
//
// Features follows the package's buffer-ownership rules: delivered
// through PollResultsInto it is valid until the next Into call on the
// same response struct.
type QueryResponse struct {
	ID         int       `json:"id"`
	Dropped    bool      `json:"dropped"`
	Variant    string    `json:"variant,omitempty"`
	Features   []float64 `json:"features,omitempty"`
	Artifact   float64   `json:"artifact,omitempty"`
	Confidence float64   `json:"confidence,omitempty"`
	Deferred   bool      `json:"deferred"`
	Arrival    float64   `json:"arrival"`
	Completion float64   `json:"completion"`
}

// SubmitRequest batches asynchronous query submissions: the call
// returns immediately and results are fetched with ResultsRequest.
// This is the persistent-connection client data path — one round
// trip admits a whole arrival batch instead of one blocking request
// per query.
//
// Pool is the resharding migration path's override: "" (normal
// admission) routes by the configured policy and counts the queries
// as fresh arrivals; "light" or "heavy" re-queues drained queries
// into that pool directly — a deferral migrated off a departing
// shard keeps its place in the cascade instead of re-running the
// light model — and leaves the arrival counters untouched, since the
// queries were already counted where they first arrived.
type SubmitRequest struct {
	Queries []QueryMsg `json:"queries"`
	Pool    string     `json:"pool,omitempty"`
}

// ResultsRequest long-polls for completed (or dropped) query results:
// the server blocks until at least one result is available or Wait
// trace-seconds pass.
type ResultsRequest struct {
	Max  int     `json:"max"`
	Wait float64 `json:"wait,omitempty"` // trace seconds
}

// ResultsResponse carries completed query results. Results is a
// decode target, valid until the next PollResultsInto call on the same
// struct.
type ResultsResponse struct {
	Results []QueryResponse `json:"results"`
}

// PullRequest asks the load balancer for up to Max queued queries for
// the given pool. A positive Wait turns the pull into a long poll:
// the server blocks until a batch is dispatchable or Wait
// trace-seconds pass, which replaces client-side sleep-and-retry.
//
// Drain flips the pull into an ownership transfer used by the
// resharding path: the server pops up to Max queued queries without
// shedding or coalescing and forgets their async registrations, so
// the caller becomes responsible for re-submitting them (to their
// new owning shard). Queries already resolved by a racing drop are
// not returned at all, which is what keeps migration
// double-resolve-free.
type PullRequest struct {
	WorkerID int     `json:"worker_id"`
	Role     string  `json:"role"` // "light" or "heavy"
	Max      int     `json:"max"`
	Wait     float64 `json:"wait,omitempty"` // trace seconds
	Drain    bool    `json:"drain,omitempty"`
}

// PullResponse carries the dequeued work. RingEpoch echoes the ring
// epoch the server last learned via ConfigureLBRequest: workers
// compare it against the epoch they pinned under and re-pin when the
// tier's membership has moved on.
//
// LeaseDeadline is the absolute trace time until which the server
// considers the pulled queries owned by this worker. Worker activity
// (further pulls or completions) heartbeats the lease forward; a
// worker that goes silent past the deadline forfeits the batch — the
// server's expiry sweep reclaims and re-queues it.
//
// Queries is a decode target, valid until the next PullInto call on
// the same struct.
type PullResponse struct {
	Queries       []QueryMsg `json:"queries"`
	RingEpoch     int        `json:"ring_epoch,omitempty"`
	LeaseDeadline float64    `json:"lease_deadline,omitempty"`
}

// CompleteItem is one finished generation. The caller keeps ownership
// of Features: the server interns what it retains, so the slice may
// alias long-lived worker storage (the imagespace cache) and be reused
// as soon as Complete returns.
type CompleteItem struct {
	ID         int       `json:"id"`
	Arrival    float64   `json:"arrival"`
	Variant    string    `json:"variant"`
	Features   []float64 `json:"features"`
	Artifact   float64   `json:"artifact"`
	Confidence float64   `json:"confidence"`
}

// CompleteRequest reports a finished batch back to the load balancer.
//
// LeaseDeadline echoes the deadline the batch was pulled under (zero
// from pre-lease clients). The server uses it to tell a live
// completion from a zombie one — a worker reporting work whose lease
// already expired and was reclaimed. Zombie items still resolve
// idempotently (the first resolution is final either way); the echo
// only feeds the late-completion counter the control plane watches.
type CompleteRequest struct {
	WorkerID      int            `json:"worker_id"`
	Role          string         `json:"role"`
	Items         []CompleteItem `json:"items"`
	LeaseDeadline float64        `json:"lease_deadline,omitempty"`
}

// ConfigureWorkerRequest reassigns a worker.
type ConfigureWorkerRequest struct {
	Role  string `json:"role"` // "idle", "light", "heavy"
	Batch int    `json:"batch"`
}

// ConfigureLBRequest updates the data-path policy knobs. RingEpoch
// carries the sharded tier's current ring epoch; the server adopts it
// monotonically (a stale broadcast cannot regress the epoch) and
// echoes it in every PullResponse so shard-pinned workers observe
// membership changes without a dedicated control channel.
type ConfigureLBRequest struct {
	Threshold float64 `json:"threshold"`
	SplitProb float64 `json:"split_prob"`
	RingEpoch int     `json:"ring_epoch,omitempty"`
}

// WorkerStats is a worker's control-plane report.
type WorkerStats struct {
	ID      int    `json:"id"`
	Role    string `json:"role"`
	Batch   int    `json:"batch"`
	Busy    bool   `json:"busy"`
	Batches int    `json:"batches"`
	Queries int    `json:"queries"`
}

// LBStats is the load balancer's control-plane report.
//
// The lease fields account for the failure model: InFlight is the
// number of currently leased (pulled, uncompleted) queries, Reclaims
// the lifetime count of queries re-queued after their worker's lease
// expired, ShedRedelivery the lifetime count dropped after exhausting
// the redelivery bound, and LateCompletions the lifetime count of
// completion items reported by a worker whose lease had already been
// reclaimed. DegradedShards is only set by the sharded frontend's
// merged report: the number of shards currently marked unreachable —
// a nonzero value is an operator's cue to reshard around them.
type LBStats struct {
	Now               float64 `json:"now"` // trace time, seconds
	LightQueueLen     int     `json:"light_queue_len"`
	HeavyQueueLen     int     `json:"heavy_queue_len"`
	LightArrivalRate  float64 `json:"light_arrival_rate"`
	HeavyArrivalRate  float64 `json:"heavy_arrival_rate"`
	ArrivalsSinceTick int     `json:"arrivals_since_tick"`
	TimeoutsSinceTick int     `json:"timeouts_since_tick"`
	Completed         int     `json:"completed"`
	Dropped           int     `json:"dropped"`
	InFlight          int     `json:"in_flight,omitempty"`
	Reclaims          int     `json:"reclaims,omitempty"`
	ShedRedelivery    int     `json:"shed_redelivery,omitempty"`
	LateCompletions   int     `json:"late_completions,omitempty"`
	DegradedShards    int     `json:"degraded_shards,omitempty"`
}

// Clock converts between wall time and trace time. Now and Restart
// are safe for concurrent use: the harness restarts the clock after
// setup while worker loops are already reading it.
type Clock struct {
	mu        sync.Mutex
	start     time.Time
	timescale float64 // wall seconds per trace second
}

// NewClock starts a clock with the given timescale. A timescale of
// 0.05 replays traces at 20x real time.
func NewClock(timescale float64) *Clock {
	if timescale <= 0 {
		timescale = 1
	}
	return &Clock{start: time.Now(), timescale: timescale} //diffvet:allow walltime — Clock anchors trace time to the wall clock; this is the boundary itself
}

// Now returns the current trace time in seconds.
func (c *Clock) Now() float64 {
	c.mu.Lock()
	start := c.start
	c.mu.Unlock()
	return time.Since(start).Seconds() / c.timescale //diffvet:allow walltime — trace time is derived from wall elapsed since the anchor; this is the boundary itself
}

// Restart rewinds trace time to zero. The harness calls this after
// component setup so that setup cost (server startup, the initial
// MILP solve) does not consume trace time.
func (c *Clock) Restart() {
	c.mu.Lock()
	c.start = time.Now() //diffvet:allow walltime — Restart re-anchors trace zero to the wall clock; this is the boundary itself
	c.mu.Unlock()
}

// WallDuration converts a trace-seconds interval to wall time.
func (c *Clock) WallDuration(traceSecs float64) time.Duration {
	return time.Duration(traceSecs * c.timescale * float64(time.Second))
}

// SleepTrace blocks for d trace-seconds.
func (c *Clock) SleepTrace(d float64) {
	if d <= 0 {
		return
	}
	time.Sleep(c.WallDuration(d)) //diffvet:allow walltime — SleepTrace realizes a trace interval as wall time; this is the boundary itself
}

// SleepTraceCtx blocks for d trace-seconds or until ctx is cancelled,
// whichever comes first. It reports whether the full sleep elapsed.
// Long-running loops use it so harness shutdown does not block on
// in-flight simulated sleeps at low timescales.
func (c *Clock) SleepTraceCtx(ctx context.Context, d float64) bool {
	if d <= 0 {
		return ctx == nil || ctx.Err() == nil
	}
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(c.WallDuration(d)) //diffvet:allow walltime — SleepTraceCtx realizes a trace interval as wall time; this is the boundary itself
		return true
	}
	t := time.NewTimer(c.WallDuration(d))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Timescale returns the wall-seconds-per-trace-second factor.
func (c *Clock) Timescale() float64 { return c.timescale }
