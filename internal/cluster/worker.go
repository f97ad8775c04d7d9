package cluster

import (
	"context"
	"math/rand"
	"sync"

	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/worker"
)

// WorkerConfig parameterizes a worker process.
type WorkerConfig struct {
	ID int
	// LB is the connection to the load balancer.
	LB LBConn
	// Space regenerates query content; all processes share its seed.
	Space *imagespace.Space
	// Light and Heavy are the variants this worker can host.
	Light, Heavy *model.Variant
	// Scorer runs on light workers.
	Scorer discriminator.Scorer
	// Clock provides trace time and scaled sleeping.
	Clock *Clock
	// DisableLoadDelay skips model-switch downtime.
	DisableLoadDelay bool
}

const (
	// workerBackoff is the trace-seconds delay before an idle
	// worker re-checks its role, before a failed pull is retried, and
	// before a failed completion's first retry.
	workerBackoff = 0.05
	// workerLongPoll is the long-poll duration in trace seconds: each
	// pull blocks server-side until work is dispatchable or it passes.
	// It bounds how long a role change can go unnoticed, so it stays
	// well under the control interval.
	workerLongPoll = 0.25
	// completeTries is the number of tries a completion report gets
	// before the worker lets the lease sweep reclaim the batch.
	completeTries = 4
)

// WorkerServer simulates one GPU worker: it long-polls batches from
// the load balancer, sleeps for the profiled execution latency
// (timescale-adjusted), generates images deterministically, scores
// them with the discriminator when hosting the light model, and
// reports completions.
type WorkerServer struct {
	cfg WorkerConfig
	rng *rand.Rand // completion-retry jitter; guarded by mu

	mu    sync.Mutex
	state *worker.Worker
}

// NewWorkerServer constructs a worker.
func NewWorkerServer(cfg WorkerConfig) *WorkerServer {
	return &WorkerServer{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(int64(cfg.ID)*0x9e3779b9 + 17)),
		state: worker.New(cfg.ID),
	}
}

func parseRole(s string) worker.Role {
	switch s {
	case "light":
		return worker.RoleLight
	case "heavy":
		return worker.RoleHeavy
	default:
		return worker.RoleIdle
	}
}

func roleName(r worker.Role) string { return r.String() }

// Configure reassigns the worker's model and batch size. Role
// switches incur the variant's load time (timescale-adjusted) unless
// disabled.
func (s *WorkerServer) Configure(req ConfigureWorkerRequest) {
	role := parseRole(req.Role)
	load := 0.0
	if !s.cfg.DisableLoadDelay {
		switch role {
		case worker.RoleLight:
			load = s.cfg.Light.LoadSeconds
		case worker.RoleHeavy:
			load = s.cfg.Heavy.LoadSeconds
		}
	}
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	s.state.Assign(now, role, max(req.Batch, 1), load)
	s.mu.Unlock()
}

// Stats reports the worker's state.
func (s *WorkerServer) Stats() WorkerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return WorkerStats{Role: roleName(s.state.Role())}
}

// Loop runs the worker's pull-execute-complete cycle until the context
// is cancelled. It is the cluster analogue of the simulator's
// dispatch/onBatchDone events. Pulls long-poll server-side, so an
// idle worker consumes no wire round-trips between arrivals.
//
// A failed pull waits workerBackoff and retries on the same conn: a tcp
// conn redials and replays its posted calls on its own, and whatever a
// dead LB still held is reclaimed by the lease sweep.
func (s *WorkerServer) Loop(ctx context.Context) {
	// The pull response and completion-item scratch live for the whole
	// loop: each pull decodes into the same struct (reusing its query
	// buffer) and each batch reuses the item slice, so a steady-state
	// worker allocates nothing per cycle. Both are owned by this
	// goroutine alone.
	var pulled PullResponse
	var items []CompleteItem
	for ctx.Err() == nil {
		now := s.cfg.Clock.Now()
		s.mu.Lock()
		role := s.state.Role()
		batch := s.state.Batch()
		available := s.state.Available(now)
		s.mu.Unlock()

		if role == worker.RoleIdle || !available {
			if !s.cfg.Clock.WaitUntil(ctx, now+workerBackoff, nil) {
				return
			}
			continue
		}

		err := s.cfg.LB.PullInto(ctx, PullRequest{
			WorkerID: s.cfg.ID, Role: roleName(role), Max: batch, Wait: workerLongPoll,
		}, &pulled)
		if err != nil {
			if !s.cfg.Clock.WaitUntil(ctx, s.cfg.Clock.Now()+workerBackoff, nil) {
				return
			}
			continue
		}
		if len(pulled.Queries) > 0 {
			items = s.executeBatch(ctx, role, &pulled, items)
		}
	}
}

// executeBatch simulates execution and reports completions to the LB.
// items is the caller's reusable
// completion scratch; the (possibly grown) slice is returned for the
// next batch — its Features fields point at images the Space generated
// (and may share with a query's memo) and are only ever replaced,
// never written through.
//
// The batch runs on its own trace schedule, from batchStart's start to
// start + exec: it starts when both the worker (its ReadyAt) and the
// batch (its QueuedAt) were ready, as the simulator dispatches, not
// when the pull's round trip happened to return.
func (s *WorkerServer) executeBatch(ctx context.Context, role worker.Role, pulled *PullResponse, items []CompleteItem) []CompleteItem {
	queries := pulled.Queries
	n := len(queries)
	variant, exec := s.cfg.Light, discriminator.LightExec(s.cfg.Light, s.cfg.Scorer, n)
	if role == worker.RoleHeavy {
		variant, exec = s.cfg.Heavy, s.cfg.Heavy.Latency.Latency(n)
	}

	returned := s.cfg.Clock.Now()
	tick := timerTick.Seconds() / s.cfg.Clock.Timescale()
	s.mu.Lock()
	ready, _ := s.state.ReadyAt() // 0 without a role: then Available fails below
	start := batchStart(ready, pulled.QueuedAt, returned, tick)
	if s.state.Available(start) {
		s.state.StartBatch(start, n, exec)
	}
	s.mu.Unlock()

	finished := s.cfg.Clock.WaitUntil(ctx, start+exec, nil)

	if finished {
		req := CompleteRequest{
			WorkerID: s.cfg.ID, Role: roleName(role), LeaseDeadline: pulled.LeaseDeadline,
		}
		req.Items = items[:0]
		for _, q := range queries {
			query := s.cfg.Space.SampleQuery(q.ID)
			img := s.cfg.Space.GenerateDeterministic(query, variant.Name, variant.Gen)
			item := CompleteItem{
				ID: q.ID, Arrival: q.Arrival,
				Variant: img.Variant, Features: img.Features, Artifact: img.Artifact,
			}
			if role == worker.RoleLight && s.cfg.Scorer != nil {
				item.Confidence = s.cfg.Scorer.Confidence(query, img)
			}
			req.Items = append(req.Items, item)
		}
		// A lost completion used to be a lost batch. Retry with
		// jittered exponential backoff; if every try fails, the lease
		// sweep reclaims and re-runs the batch — server-side
		// idempotent resolve makes the duplicate execution harmless.
		backoff := workerBackoff
		for try := 1; ; try++ {
			if s.cfg.LB.Complete(ctx, req) == nil || try >= completeTries || ctx.Err() != nil {
				break
			}
			s.mu.Lock()
			jitter := 0.5 + s.rng.Float64()
			s.mu.Unlock()
			if !s.cfg.Clock.WaitUntil(ctx, s.cfg.Clock.Now()+backoff*jitter, nil) {
				break
			}
			backoff *= 2
		}
		items = req.Items
	}
	return items
}

// batchStart is when a batch whose pull returned at returned starts:
// when both the worker (ready: previous batch end or model load) and
// the batch (queuedAt) were ready, so neither a late wake nor the
// pull's round trip is charged to it, but never after returned, and at
// most one timer tick (tick) before it: after a stalled Complete, ready
// is far behind, and the stall must not be replayed as GPU time.
func batchStart(ready, queuedAt, returned, tick float64) float64 {
	return min(returned, max(ready, queuedAt, returned-tick))
}
