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
	// PollInterval is the idle re-check delay in trace seconds, used
	// while the worker has no role assigned.
	PollInterval float64
	// PullWait is the long-poll duration in trace seconds: each pull
	// blocks server-side until work is dispatchable or PullWait
	// passes. It bounds how long a role change can go unnoticed, so
	// it stays well under the control interval.
	PullWait float64
	// DisableLoadDelay skips model-switch downtime.
	DisableLoadDelay bool
	// RePin, when set, is consulted whenever a pull response carries a
	// ring epoch newer than the one the worker pinned under: it
	// returns the connection the worker should pull from at that
	// epoch (nil keeps the current pin). The harness wires it so
	// shard-pinned workers follow dynamic membership; a batch already
	// pulled always completes to the connection it was pulled from,
	// because that shard holds the queries' registrations.
	RePin func(epoch int) LBConn
	// Redial, when set, is consulted after RedialAfter consecutive
	// pull failures: it returns a fresh connection to the worker's
	// shard (nil keeps the current one). It reuses the re-pin
	// machinery's shape — the harness typically wires both to the same
	// member lookup — so a conn that died for good is replaced instead
	// of being error-polled forever.
	Redial func(epoch int) LBConn
	// RedialAfter is the consecutive-pull-failure threshold that
	// triggers Redial (0 defaults to 3).
	RedialAfter int
	// CompleteRetries is the number of tries a completion report gets
	// before the worker gives up and lets the lease sweep reclaim the
	// batch (0 defaults to 4). Retries back off exponentially from
	// PollInterval with deterministic per-worker jitter.
	CompleteRetries int
	// Steal, when set, returns the other shard members' connections.
	// After a pull from the pinned shard comes back empty, the worker
	// tries one zero-wait pull from each in turn — cross-shard work
	// stealing. In a weighted tier the ring sizes key shares to
	// worker-group capacity, but integer striping still leaves
	// fractional mismatch; stealing soaks up that remainder so a
	// thin shard's spare worker-seconds serve the tier instead of
	// idling. A stolen batch completes to the shard it was pulled
	// from (that shard holds the queries' registrations).
	Steal func() []LBConn
}

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
	busy  bool
}

// NewWorkerServer constructs a worker.
func NewWorkerServer(cfg WorkerConfig) *WorkerServer {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 0.05
	}
	if cfg.PullWait <= 0 {
		cfg.PullWait = 0.25
	}
	if cfg.RedialAfter <= 0 {
		cfg.RedialAfter = 3
	}
	if cfg.CompleteRetries <= 0 {
		cfg.CompleteRetries = 4
	}
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
	s.state.Assign(now, role, maxInt(req.Batch, 1), load)
	s.mu.Unlock()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Stats reports the worker's state.
func (s *WorkerServer) Stats() WorkerStats {
	s.mu.Lock()
	out := WorkerStats{
		ID:      s.state.ID(),
		Role:    roleName(s.state.Role()),
		Batch:   s.state.Batch(),
		Busy:    s.busy,
		Batches: s.state.Batches(),
		Queries: s.state.Queries(),
	}
	s.mu.Unlock()
	return out
}

// Loop runs the worker's pull-execute-complete cycle until the context
// is cancelled. It is the cluster analogue of the simulator's
// dispatch/onBatchDone events. Pulls long-poll server-side, so an
// idle worker consumes no wire round-trips between arrivals.
func (s *WorkerServer) Loop(ctx context.Context) {
	// lb is the shard the worker is currently pinned to; epoch is the
	// ring epoch it pinned under. A pulled batch completes to the conn
	// it came from even if the worker re-pins before execution ends.
	lb := s.cfg.LB
	epoch := 0
	pullFails := 0
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
			if !s.cfg.Clock.SleepTraceCtx(ctx, s.cfg.PollInterval) {
				return
			}
			continue
		}

		err := lb.PullInto(ctx, PullRequest{
			WorkerID: s.cfg.ID, Role: roleName(role), Max: batch, Wait: s.cfg.PullWait,
		}, &pulled)
		if err != nil {
			// Transient transport failure: back off briefly. Past the
			// redial threshold the conn is presumed dead for good —
			// replace it rather than error-polling a corpse.
			pullFails++
			if pullFails >= s.cfg.RedialAfter && s.cfg.Redial != nil {
				if c := s.cfg.Redial(epoch); c != nil {
					lb = c
					pullFails = 0
				}
			}
			if !s.cfg.Clock.SleepTraceCtx(ctx, s.cfg.PollInterval) {
				return
			}
			continue
		}
		pullFails = 0
		if len(pulled.Queries) > 0 {
			items = s.executeBatch(ctx, role, lb, &pulled, items)
		} else if s.cfg.Steal != nil {
			// The pinned shard's long poll expired empty: the worker has
			// spare capacity right now. Poach one batch from another
			// member with zero-wait pulls (never parking on a foreign
			// shard — the pinned shard stays the only long poll).
			for _, alt := range s.cfg.Steal() {
				if alt == nil || alt == lb || ctx.Err() != nil {
					continue
				}
				if alt.PullInto(ctx, PullRequest{
					WorkerID: s.cfg.ID, Role: roleName(role), Max: batch, Wait: 0,
				}, &pulled) != nil {
					continue
				}
				if len(pulled.Queries) > 0 {
					items = s.executeBatch(ctx, role, alt, &pulled, items)
					break
				}
			}
		}
		if pulled.RingEpoch > epoch {
			// The tier resharded: re-pin after the in-flight batch has
			// completed back to the shard it was pulled from.
			epoch = pulled.RingEpoch
			if s.cfg.RePin != nil {
				if c := s.cfg.RePin(epoch); c != nil {
					lb = c
				}
			}
		}
	}
}

// executeBatch simulates execution and reports completions to lb, the
// connection the batch was pulled from. items is the caller's reusable
// completion scratch; the (possibly grown) slice is returned for the
// next batch — its Features fields point into the imagespace cache and
// are only ever replaced, never written through.
func (s *WorkerServer) executeBatch(ctx context.Context, role worker.Role, lb LBConn, pulled *PullResponse, items []CompleteItem) []CompleteItem {
	queries := pulled.Queries
	n := len(queries)
	variant, exec := s.cfg.Light, discriminator.LightExec(s.cfg.Light, s.cfg.Scorer, n)
	if role == worker.RoleHeavy {
		variant, exec = s.cfg.Heavy, s.cfg.Heavy.Latency.Latency(n)
	}

	now := s.cfg.Clock.Now()
	s.mu.Lock()
	if s.state.Available(now) {
		s.state.StartBatch(now, n, exec)
	}
	s.busy = true
	s.mu.Unlock()

	finished := s.cfg.Clock.SleepTraceCtx(ctx, exec)

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
		backoff := s.cfg.PollInterval
		for try := 1; ; try++ {
			if lb.Complete(ctx, req) == nil || try >= s.cfg.CompleteRetries || ctx.Err() != nil {
				break
			}
			s.mu.Lock()
			jitter := 0.5 + s.rng.Float64()
			s.mu.Unlock()
			if !s.cfg.Clock.SleepTraceCtx(ctx, backoff*jitter) {
				break
			}
			backoff *= 2
		}
		items = req.Items
	}

	s.mu.Lock()
	s.busy = false
	s.mu.Unlock()
	return items
}
