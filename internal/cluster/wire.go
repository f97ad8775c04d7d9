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
//   - one codec, CodecBinary (codec.go) — hand-rolled and
//     length-prefixed, with no reflection on the hot path; the tests
//     hold it to an encoding/json reference over the messages' json
//     tags, and diffvet's codecparity analyzer keeps it in step with
//     the structs;
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
// server-side until work is queued or a deadline passes,
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
	"sync/atomic"
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
type SubmitRequest struct {
	Queries []QueryMsg `json:"queries"`
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
// the server blocks until anything is queued or Wait
// trace-seconds pass, which replaces client-side sleep-and-retry.
type PullRequest struct {
	WorkerID int     `json:"worker_id"`
	Role     string  `json:"role"` // "light" or "heavy"
	Max      int     `json:"max"`
	Wait     float64 `json:"wait,omitempty"` // trace seconds
}

// PullResponse carries the dequeued work.
//
// LeaseDeadline is the absolute trace time until which the server
// considers the pulled queries owned by this worker. Worker activity
// (further pulls or completions) heartbeats the lease forward; a
// worker that goes silent past the deadline forfeits the batch — the
// server's expiry sweep reclaims and re-queues it.
//
// QueuedAt is the latest trace time at which any returned query joined
// the pool it was pulled from, never before its arrival (a deferral
// joins heavy when the light Complete that deferred it lands); a gather
// returns the maximum over its legs. No batch starts before it.
//
// Queries is a decode target, valid until the next PullInto call on
// the same struct.
type PullResponse struct {
	Queries       []QueryMsg `json:"queries"`
	LeaseDeadline float64    `json:"lease_deadline,omitempty"`
	QueuedAt      float64    `json:"queued_at,omitempty"`
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

// ConfigureLBRequest updates the data-path policy knobs.
type ConfigureLBRequest struct {
	Threshold float64 `json:"threshold"`
	SplitProb float64 `json:"split_prob"`
}

// WorkerStats is a worker's control-plane report.
type WorkerStats struct {
	Role string `json:"role"`
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
// merged report: the number of shards currently marked unreachable,
// whose new submits spill to the next shard.
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
// setup while worker loops are already reading it. Now takes no lock.
//
// Every trace-time wait in the cluster is a WaitUntil on an absolute
// trace deadline. A loop that waits for its own schedule (a worker for
// its batch's end, the controller for its next tick), not an interval
// after each wake, does not accumulate a late wake's lateness.
type Clock struct {
	start     atomic.Pointer[time.Time] // the wall instant of trace zero
	timescale float64                   // wall seconds per trace second
}

// NewClock starts a clock with the given timescale. A timescale of
// 0.05 replays traces at 20x real time.
func NewClock(timescale float64) *Clock {
	if timescale <= 0 {
		timescale = 1
	}
	c := &Clock{timescale: timescale}
	start := time.Now() //diffvet:allow walltime — Clock anchors trace time to the wall clock; this is the boundary itself
	c.start.Store(&start)
	return c
}

// Now returns the current trace time in seconds.
func (c *Clock) Now() float64 {
	return time.Since(*c.start.Load()).Seconds() / c.timescale //diffvet:allow walltime — trace time is derived from wall elapsed since the anchor; this is the boundary itself
}

// Restart rewinds trace time to zero. The harness calls this after
// component setup so that setup cost (server startup, the initial
// MILP solve) does not consume trace time.
func (c *Clock) Restart() {
	start := time.Now() //diffvet:allow walltime — Restart re-anchors trace zero to the wall clock; this is the boundary itself
	c.start.Store(&start)
}

// WallDuration converts a trace-seconds interval to wall time.
func (c *Clock) WallDuration(traceSecs float64) time.Duration {
	return time.Duration(traceSecs * c.timescale * float64(time.Second))
}

// WaitUntil blocks until trace time reaches deadline, wake fires, or
// ctx ends, and reports false only in the last case. A deadline
// already past returns at once; a nil ctx or wake never fires. A true
// return without wake guarantees Now() >= deadline: a timer or sleep
// that lands early is re-armed for the rest. The timer comes from a
// pool, so a wait allocates nothing. A wait without wake is a schedule
// wait (a batch's end, a tick, an arrival): where the kernel sleep
// exists it parks on the timer until one timerTick before the deadline
// and sleeps the rest in the kernel, deaf to ctx for that last tick.
func (c *Clock) WaitUntil(ctx context.Context, deadline float64, wake <-chan struct{}) bool {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		select {
		case <-done:
			return false
		default:
		}
		rem := deadline - c.Now()
		if rem <= 0 {
			return true
		}
		wait := c.WallDuration(rem)
		if wake == nil && kernelSleep {
			if wait <= timerTick {
				sleepKernel(wait)
				continue
			}
			wait -= timerTick
		}
		t := waitTimers.Get().(*time.Timer)
		t.Reset(wait)
		fired, woke := false, false
		select {
		case <-t.C:
			fired = true
		case <-wake:
			woke = true
		case <-done:
		}
		if !fired && !t.Stop() {
			select { // fired while another case won: drain for the next Reset
			case <-t.C:
			default:
			}
		}
		waitTimers.Put(t)
		if woke {
			return true
		}
	}
}

// timerTick is the runtime poller's granularity: it rounds a timer wait
// up to whole milliseconds, so a timer wakes up to this late. WaitUntil
// sleeps a schedule wait's last tick in the kernel instead.
const timerTick = time.Millisecond

// waitTimers recycles the timers WaitUntil parks on, so a wait costs
// a Reset, not an allocation. A pooled timer is stopped and drained.
var waitTimers = sync.Pool{New: func() interface{} {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// Timescale returns the wall-seconds-per-trace-second factor.
func (c *Clock) Timescale() float64 { return c.timescale }
