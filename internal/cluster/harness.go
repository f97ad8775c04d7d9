package cluster

import (
	"context"
	"fmt"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/controller"
	"diffserve/internal/discriminator"
	"diffserve/internal/fid"
	"diffserve/internal/imagespace"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/metrics"
	"diffserve/internal/model"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

// HarnessConfig assembles an in-process cluster: LB + workers +
// controller wired through a pluggable transport, driven by a
// trace-replaying client. The same servers back the standalone cmd/
// binaries; the harness exists so tests and the simulator-vs-cluster
// experiment can run the full data path in one process.
type HarnessConfig struct {
	Space        *imagespace.Space
	Light, Heavy *model.Variant
	Scorer       discriminator.Scorer
	Mode         loadbalancer.Mode
	Workers      int
	SLO          float64
	Trace        *trace.Trace
	// Ctrl owns the allocator; a fresh controller per run.
	Ctrl *controller.Controller
	// Timescale compresses trace time: 0.02 replays at 50x.
	Timescale float64
	// Seed drives arrival synthesis and random routing.
	Seed uint64
	// DisableLoadDelay makes model switches instantaneous.
	DisableLoadDelay bool
	// QueryIDBase offsets query IDs.
	QueryIDBase int
	// Transport selects how components are wired: "tcp" (framed TCP
	// with the binary codec, the default) or "inproc" (direct calls,
	// zero serialization — the fastest path for high timescale
	// factors).
	Transport string
	// LBShards runs the sharded LB tier: the query stream is
	// partitioned across this many independent LBServer shards (each
	// with its own RNG stream "lb/<shard>") by loadbalancer.ShardOf, and
	// the client, the controller and every worker speak to one ShardedLB
	// frontend. A worker's pull gathers from every shard, so each pool is
	// served by all the workers of its role, as in the simulator, however
	// the stream is split. 0 or 1 runs the single-LB topology.
	LBShards int
}

func (c *HarnessConfig) validate() error {
	switch {
	case c.Space == nil || c.Light == nil || c.Heavy == nil:
		return fmt.Errorf("cluster: space and variants required")
	case c.Workers <= 0:
		return fmt.Errorf("cluster: workers must be positive")
	case c.SLO <= 0:
		return fmt.Errorf("cluster: SLO must be positive")
	case c.Trace == nil:
		return fmt.Errorf("cluster: trace required")
	case c.Ctrl == nil:
		return fmt.Errorf("cluster: controller required")
	case c.Scorer == nil && c.Mode == loadbalancer.ModeCascade:
		return fmt.Errorf("cluster: scorer required in cascade mode")
	}
	return nil
}

// Result is the outcome of a harness run.
type Result struct {
	// Collector records every result the harness's client polled.
	Collector *metrics.Collector
	Reference *fid.Reference
	Plans     []controller.PlanAt
	// benchmark/ only: replay.go (cluster_trace); item P deletes it.
	Queries int
	// Transport names the transport the run used.
	Transport string
	// WallSeconds is the real elapsed time.
	WallSeconds float64
}

// Summary computes the end-to-end summary against the run's reference.
func (r *Result) Summary() metrics.Summary { return r.Collector.Summarize(r.Reference) }

// Run executes the full trace through the in-process cluster: it
// builds the cluster over a fresh transport, replays the trace on the
// wall clock and builds the FID reference of what the client recorded.
func Run(cfg HarnessConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Timescale <= 0 {
		cfg.Timescale = 0.02
	}
	tp, err := NewTransport(cfg.Transport)
	if err != nil {
		return nil, err
	}
	defer tp.Close()

	wallStart := time.Now() //diffvet:allow walltime — WallSeconds measures real elapsed time for the run report
	r, err := build(cfg, tp)
	if err != nil {
		return nil, err
	}
	col, err := r.replayWall()
	if err != nil {
		return nil, err
	}
	ref, err := fid.NewReference(r.realFeats)
	if err != nil {
		return nil, fmt.Errorf("cluster: building FID reference: %w", err)
	}
	return &Result{
		Collector:   col,
		Reference:   ref,
		Plans:       r.loop.Plans(),
		Queries:     len(r.arrivals),
		Transport:   tp.Name(),
		WallSeconds: time.Since(wallStart).Seconds(), //diffvet:allow walltime — WallSeconds measures real elapsed time for the run report
	}, nil
}

// rig is an assembled in-process cluster that nothing drives yet. A
// replay runs the trace through it from its own trace zero, where it
// applies plan, the initial plan, and only then starts the workers.
type rig struct {
	cfg     HarnessConfig
	tp      Transport
	clock   *Clock
	servers []*LBServer // one per shard
	// lb is the conn the client, the workers and the controller share:
	// frontend, the ShardedLB over the shards, or the one LB's conn.
	lb        LBConn
	frontend  *ShardedLB // nil on one LB; the replay closes it
	workers   []*WorkerServer
	loop      *ControllerLoop
	plan      allocator.Plan // solved, not applied
	arrivals  []float64      // trace seconds, ascending
	realFeats [][]float64    // the FID reference's features, one per arrival
}

// build assembles the cluster cfg describes over tp, with the arrivals
// and the FID reference features precomputed while setup time is free.
// It drives nothing: it configures no component, reads and restarts no
// trace time, and starts no worker, control, submitter or collector.
func build(cfg HarnessConfig, tp Transport) (*rig, error) {
	r := &rig{cfg: cfg, tp: tp, clock: NewClock(cfg.Timescale)}
	var err error
	// Only the cascade runs a discriminator.
	var scorer discriminator.Scorer
	if cfg.Mode == loadbalancer.ModeCascade {
		scorer = cfg.Scorer
	}
	// One LBServer per shard (one shard: the classic topology). Each
	// shard of a sharded tier draws routing randomness from its own
	// stream "lb/<shard>" of the run seed, so shards draw decorrelated
	// random-split decisions and per-shard behavior is deterministic;
	// the classic single-LB topology keeps the default "lb" stream.
	shardCount := max(cfg.LBShards, 1)
	r.servers = make([]*LBServer, shardCount)
	shardConns := make([]LBConn, shardCount)
	for i := range r.servers {
		lbCfg := LBConfig{
			Mode: cfg.Mode, SLO: cfg.SLO,
			LightMinExec: discriminator.LightExec(cfg.Light, scorer, 1),
			HeavyMinExec: cfg.Heavy.Latency.Latency(1),
			Clock:        r.clock, Seed: cfg.Seed,
		}
		if shardCount > 1 {
			lbCfg.RNGStream = fmt.Sprintf("lb/%d", i)
		}
		r.servers[i] = NewLBServer(lbCfg)
		if shardConns[i], err = tp.ServeLB(r.servers[i]); err != nil {
			return nil, err
		}
	}
	r.lb = shardConns[0]
	if shardCount > 1 {
		if r.frontend, err = NewShardedLB(ShardedLBConfig{Shards: shardConns, Clock: r.clock}); err != nil {
			return nil, err
		}
		r.lb = r.frontend
	}

	// Every worker pulls through the run's one LB conn: behind a
	// frontend a pull gathers from any shard and a completion is routed
	// to the shard that holds each query, so no worker is pinned.
	r.workers = make([]*WorkerServer, cfg.Workers)
	workerConns := make([]WorkerConn, cfg.Workers)
	for i := range r.workers {
		r.workers[i] = NewWorkerServer(WorkerConfig{
			ID: i, LB: r.lb,
			Space: cfg.Space, Light: cfg.Light, Heavy: cfg.Heavy,
			Scorer: scorer, Clock: r.clock,
			DisableLoadDelay: cfg.DisableLoadDelay,
		})
		if workerConns[i], err = tp.ServeWorker(r.workers[i]); err != nil {
			return nil, err
		}
	}
	r.loop = NewControllerLoop(ControllerConfig{
		Ctrl: cfg.Ctrl, LB: r.lb, Workers: workerConns,
		Mode: cfg.Mode, Clock: r.clock,
	})
	if r.plan, err = cfg.Ctrl.InitialPlan(cfg.Trace.RateAt(0)); err != nil {
		return nil, err
	}

	r.arrivals = cfg.Trace.Arrivals(stats.NewRNG(cfg.Seed).Stream("trace"))
	r.realFeats = make([][]float64, len(r.arrivals))
	for i := range r.arrivals {
		q := cfg.Space.SampleQuery(cfg.QueryIDBase + i)
		r.realFeats[i] = cfg.Space.RealImage(q)
	}
	return r, nil
}

// replayWall replays r's trace on the wall clock, drains the cluster
// and returns what the client recorded, or the transport's error if it
// failed for good mid-run. Trace zero is its clock restart: the initial
// plan is applied at it and the workers and control ticks start after
// it, so no role stamp or wait of theirs predates it. It closes the
// frontend when it returns.
func (r *rig) replayWall() (*metrics.Collector, error) {
	if r.frontend != nil {
		defer r.frontend.Close()
	}
	r.clock.Restart()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tpFailed := watchTransport(ctx, r.tp, cancel)
	r.loop.Apply(ctx, r.plan)
	for _, w := range r.workers {
		go w.Loop(ctx)
	}
	// The control ticks are joined before the caller reads the plans: a
	// tick in flight at cancel appends to them.
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		r.loop.Run(ctx)
	}()

	// One submitter goroutine (submit) sends the queries due together
	// in one SubmitBatch, and one collector goroutine long-polls for
	// results and records them: the LBs keep no per-query record, so
	// this is the run's record.
	col := metrics.NewCollector()
	col.Grow(len(r.arrivals))
	done := make(chan struct{})      // closed once every query's result is recorded
	drained := make(chan struct{})   // closed after the last drain: take what is left, then stop
	collected := make(chan struct{}) // closed when the collector returns
	go func() {
		defer close(collected)
		got := 0
		var resp ResultsResponse // reused across polls; features are interned out of it
		for got < len(r.arrivals) && ctx.Err() == nil {
			req := ResultsRequest{Max: 1024, Wait: 1}
			select {
			case <-drained:
				req.Wait = 0
			default:
			}
			resp.Results = resp.Results[:0] // a failed remote call leaves resp as it was
			if err := r.lb.PollResultsInto(ctx, req, &resp); err != nil {
				if req.Wait == 0 {
					return
				}
				// Transient transport failure: back off briefly.
				r.clock.WaitUntil(ctx, r.clock.Now()+0.05, nil)
				continue
			}
			if req.Wait == 0 && len(resp.Results) == 0 {
				return
			}
			for i := range resp.Results {
				rec := resp.Results[i].Record(r.cfg.SLO)
				rec.Features = col.InternFeatures(rec.Features)
				col.Record(rec)
			}
			got += len(resp.Results)
		}
		if got >= len(r.arrivals) {
			close(done)
		}
	}()
	go r.submit(ctx)

	// Wait for every query to resolve, plus a drain grace; then shed
	// leftovers and, as a last resort, give up after a second grace
	// (a lost submit batch can leave the collector short). A fatal
	// transport failure aborts the wait immediately.
	var transportErr error
	drainAll := func() {
		for _, lb := range r.servers {
			lb.DrainRemaining()
		}
	}
	grace := model.DrainGrace(r.cfg.SLO, r.cfg.Heavy)
	horizon := r.cfg.Trace.Duration() + grace
	select {
	case <-done:
	case transportErr = <-tpFailed:
	case <-time.After(r.clock.WallDuration(horizon)): //diffvet:allow walltime — shutdown watchdog must fire on wall time even if the trace clock stalls
		drainAll()
		select {
		case <-done:
		case transportErr = <-tpFailed:
		case <-time.After(r.clock.WallDuration(grace) + 2*time.Second): //diffvet:allow walltime — drain grace watchdog must fire on wall time even if the trace clock stalls
		}
	}
	drainAll()
	// The collector, unless it is done, now polls without waiting until
	// the LB is empty, so a drop the drain resolved is still recorded;
	// it is not cancelled mid-poll, which over tcp would lose the
	// results that poll took.
	close(drained)
	<-collected
	cancel()
	<-loopDone
	if transportErr == nil {
		// The failure may have raced with normal completion.
		select {
		case transportErr = <-tpFailed:
		default:
		}
	}
	if transportErr != nil {
		return nil, fmt.Errorf("cluster: %s transport failed mid-run: %w", r.tp.Name(), transportErr)
	}
	return col, nil
}

// submit submits r's arrivals as each falls due, those due together in
// one SubmitBatch, until they are all submitted, ctx ends or a submit
// fails.
func (r *rig) submit(ctx context.Context) {
	batch := make([]QueryMsg, 0, 64)
	i := 0
	for i < len(r.arrivals) {
		if !r.clock.WaitUntil(ctx, r.arrivals[i], nil) {
			return
		}
		now := r.clock.Now()
		batch = batch[:0]
		for i < len(r.arrivals) && r.arrivals[i] <= now {
			batch = append(batch, QueryMsg{ID: r.cfg.QueryIDBase + i, Arrival: r.arrivals[i]})
			i++
		}
		if err := r.lb.SubmitBatch(ctx, SubmitRequest{Queries: batch}); err != nil {
			return
		}
	}
}

// watchTransport watches tp for a fatal failure (a TCP peer gone for
// good, dial retries exhausted) until ctx ends. On the first it cancels
// the run and hands the failure over on the returned channel, so the
// run surfaces it instead of silently dropping the submitted queries.
// Transient events — an injected fault from a FaultTransport, a conn
// that severed and recovered — are drained and ignored: a run under
// fault injection must survive its own chaos, not abort on it. A nil
// Errors channel never fires, so the watch then just waits for ctx.
func watchTransport(ctx context.Context, tp Transport, cancel context.CancelFunc) <-chan error {
	failed := make(chan error, 1)
	ch := tp.Errors()
	go func() {
		for {
			select {
			case terr, ok := <-ch:
				if !ok {
					return
				}
				if terr == nil || IsTransientTransportError(terr) {
					continue
				}
				select {
				case failed <- terr:
				default:
				}
				cancel()
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	return failed
}
