package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

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
	// TransportImpl overrides Transport with a pre-built transport.
	// The harness still owns and closes it. Tests use it to inject
	// failures mid-run.
	TransportImpl Transport
	// LBShards runs the sharded LB tier: the query stream is
	// partitioned across this many independent LBServer shards (each
	// with its own RNG stream "lb/<shard>") by loadbalancer.ShardOf, and
	// the client, the controller and every worker speak to one ShardedLB
	// frontend. A worker's pull gathers from every shard, so each pool is
	// served by all the workers of its role, as in the simulator, however
	// the stream is split. 0 or 1 runs the single-LB topology (unless
	// Reshard events are present, which force the frontend).
	LBShards int
	// Reshard schedules mid-trace membership changes: at each event's
	// trace time the harness adds a fresh shard (a new LBServer) or
	// removes one (draining its queued work to the survivors). New
	// submits then route by ShardOf over the new sorted membership; an
	// add moves no queued query. Events run in At order.
	Reshard []ReshardEvent
}

// ReshardEvent is one scheduled membership change in a harness run.
type ReshardEvent struct {
	// At is the trace time (seconds) the change applies.
	At float64
	// Action is "add" or "remove".
	Action string
	// Member is the ring member ID to add or remove. Added members
	// must be fresh IDs (never used before in the run).
	Member int
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
	for _, ev := range c.Reshard {
		if ev.Action != "add" && ev.Action != "remove" {
			return fmt.Errorf("cluster: reshard action %q (have add, remove)", ev.Action)
		}
		if ev.At < 0 {
			return fmt.Errorf("cluster: reshard event at negative trace time %g", ev.At)
		}
	}
	return nil
}

// Result is the outcome of a harness run.
type Result struct {
	Collector *metrics.Collector
	Reference *fid.Reference
	Plans     []controller.PlanAt
	Queries   int
	// Transport names the transport the run used.
	Transport string
	// LBShards is the LB shard count the run used (1 = single LB).
	LBShards int
	// WallSeconds is the real elapsed time.
	WallSeconds float64
}

// Summary computes the end-to-end summary against the run's reference.
func (r *Result) Summary() metrics.Summary { return r.Collector.Summarize(r.Reference) }

// Run executes the full trace through the in-process cluster.
func Run(cfg HarnessConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Timescale <= 0 {
		cfg.Timescale = 0.02
	}
	tp := cfg.TransportImpl
	if tp == nil {
		var err error
		if tp, err = NewTransport(cfg.Transport); err != nil {
			return nil, err
		}
	}
	defer tp.Close()

	wallStart := time.Now() //diffvet:allow walltime — WallSeconds measures real elapsed time for the run report
	clock := NewClock(cfg.Timescale)
	rng := stats.NewRNG(cfg.Seed)

	// Only the cascade runs a discriminator.
	var scorer discriminator.Scorer
	if cfg.Mode == loadbalancer.ModeCascade {
		scorer = cfg.Scorer
	}
	// One LBServer per shard (one shard: the classic topology). Each
	// shard draws routing randomness from its own stream "lb/<member>"
	// of the run seed, so per-shard behavior is deterministic and
	// independent of the shard count of other runs — and of when the
	// shard joined.
	shardCount := cfg.LBShards
	if shardCount <= 0 {
		shardCount = 1
	}
	// Reshard events need the frontend even over one initial shard.
	useFrontend := shardCount > 1 || len(cfg.Reshard) > 0
	newShardServer := func(member int) *LBServer {
		lbCfg := LBConfig{
			Mode: cfg.Mode, SLO: cfg.SLO,
			LightMinExec: discriminator.LightExec(cfg.Light, scorer, 1),
			HeavyMinExec: cfg.Heavy.Latency.Latency(1),
			Clock:        clock, Seed: cfg.Seed,
		}
		// Every shard of a sharded (or reshardable) tier draws from
		// its member's own stream, so shards added mid-run stay
		// decorrelated from the survivors; only the classic single-LB
		// topology keeps the default "lb" stream.
		if useFrontend {
			lbCfg.RNGStream = fmt.Sprintf("lb/%d", member)
		}
		return NewLBServer(lbCfg)
	}
	// servers tracks every LBServer the run ever creates — including
	// shards added or retired mid-trace — for the end-of-run drain and
	// the collector merge.
	var serverMu sync.Mutex
	var servers []*LBServer
	shardConns := make([]LBConn, shardCount)
	for i := 0; i < shardCount; i++ {
		lb := newShardServer(i)
		servers = append(servers, lb)
		var err error
		if shardConns[i], err = tp.ServeLB(lb); err != nil {
			return nil, err
		}
	}
	var lbConn LBConn
	var frontend *ShardedLB
	if !useFrontend {
		lbConn = shardConns[0]
	} else {
		var err error
		frontend, err = NewShardedLB(ShardedLBConfig{Shards: shardConns, Clock: clock})
		if err != nil {
			return nil, err
		}
		defer frontend.Close()
		lbConn = frontend
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Watch for fatal transport failures (a TCP peer gone for good,
	// dial retries exhausted): abort the run and surface the error
	// instead of silently dropping the submitted queries. Transient
	// events — an injected fault from a FaultTransport, a conn that
	// severed and recovered — are drained and ignored: a run under
	// fault injection must survive its own chaos, not abort on it.
	tpFailed := make(chan error, 1)
	if ch := tp.Errors(); ch != nil {
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
					case tpFailed <- terr:
					default:
					}
					cancel()
					return
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	workerConns := make([]WorkerConn, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		// Every worker pulls through the run's one LB conn: behind a
		// frontend a pull gathers from any shard and a completion is
		// routed to the shard that owns each query, so no worker is
		// pinned and a reshard needs nothing from the workers.
		ws := NewWorkerServer(WorkerConfig{
			ID: i, LB: lbConn,
			Space: cfg.Space, Light: cfg.Light, Heavy: cfg.Heavy,
			Scorer: scorer, Clock: clock,
			DisableLoadDelay: cfg.DisableLoadDelay,
		})
		var err error
		if workerConns[i], err = tp.ServeWorker(ws); err != nil {
			return nil, err
		}
		go ws.Loop(ctx)
	}

	loop := NewControllerLoop(ControllerConfig{
		Ctrl: cfg.Ctrl, LB: lbConn, Workers: workerConns,
		Mode: cfg.Mode, Clock: clock,
	})
	// Initial plan from the trace's starting rate, then periodic ticks.
	initialPlan, err := cfg.Ctrl.InitialPlan(cfg.Trace.RateAt(0))
	if err != nil {
		return nil, err
	}
	loop.Apply(ctx, initialPlan)

	// Precompute arrivals and the FID reference features while setup
	// time is still free.
	arrivals := cfg.Trace.Arrivals(rng.Stream("trace"))
	realFeats := make([][]float64, len(arrivals))
	for i := range arrivals {
		q := cfg.Space.SampleQuery(cfg.QueryIDBase + i)
		realFeats[i] = cfg.Space.RealImage(q)
	}

	// Setup is done (servers up, initial plan applied): rewind trace
	// time so setup cost does not eat into the replay, then start the
	// control ticks on the rewound clock. They are joined before the
	// Result is built: a tick in flight at cancel appends to its plans.
	clock.Restart()
	var loopDone sync.WaitGroup
	loopDone.Add(1)
	go func() {
		defer loopDone.Done()
		loop.Run(ctx)
	}()

	// Reshard driver: apply the scheduled membership changes at their
	// trace times. Each change installs a new ring epoch on the
	// frontend (adding a freshly served LBServer or retiring one); the
	// workers' next pulls already sweep the new membership. A failed
	// reshard is a configuration bug and aborts the run like a fatal
	// transport failure would.
	reshardFailed := make(chan error, 1)
	if len(cfg.Reshard) > 0 {
		events := append([]ReshardEvent(nil), cfg.Reshard...)
		sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
		go func() {
			for _, ev := range events {
				if !clock.WaitUntil(ctx, ev.At, nil) {
					return
				}
				var err error
				switch ev.Action {
				case "add":
					lb := newShardServer(ev.Member)
					var conn LBConn
					if conn, err = tp.ServeLB(lb); err == nil {
						serverMu.Lock()
						servers = append(servers, lb)
						serverMu.Unlock()
						err = frontend.AddShard(ctx, ev.Member, conn)
					}
				case "remove":
					err = frontend.RemoveShard(ctx, ev.Member)
				}
				if err != nil {
					select {
					case reshardFailed <- fmt.Errorf("cluster: reshard %s %d at t=%g: %w", ev.Action, ev.Member, ev.At, err):
					default:
					}
					cancel()
					return
				}
			}
		}()
	}

	// Replay the trace over the batched async submit path: one
	// submitter goroutine groups queries that are due together into a
	// single SubmitBatch round trip, and one collector goroutine
	// long-polls for results — persistent connections end to end
	// instead of a goroutine + blocking request per query.
	done := make(chan struct{})
	var collected sync.WaitGroup
	collected.Add(1)
	go func() { // collector
		defer collected.Done()
		got := 0
		var resp ResultsResponse // reused across polls
		for got < len(arrivals) && ctx.Err() == nil {
			err := lbConn.PollResultsInto(ctx, ResultsRequest{Max: 1024, Wait: 1}, &resp)
			if err != nil {
				// Transient transport failure: back off briefly.
				clock.WaitUntil(ctx, clock.Now()+0.05, nil)
				continue
			}
			got += len(resp.Results)
		}
		if got >= len(arrivals) {
			close(done)
		}
	}()
	go func() { // submitter
		batch := make([]QueryMsg, 0, 64)
		i := 0
		for i < len(arrivals) {
			if !clock.WaitUntil(ctx, arrivals[i], nil) {
				return
			}
			now := clock.Now()
			batch = batch[:0]
			for i < len(arrivals) && arrivals[i] <= now {
				batch = append(batch, QueryMsg{ID: cfg.QueryIDBase + i, Arrival: arrivals[i]})
				i++
			}
			if err := lbConn.SubmitBatch(ctx, SubmitRequest{Queries: batch}); err != nil {
				return
			}
		}
	}()

	// Wait for every query to resolve, plus a drain grace; then shed
	// leftovers and, as a last resort, give up after a second grace
	// (a lost submit batch can leave the collector short). A fatal
	// transport failure aborts the wait immediately.
	var transportErr error
	drainAll := func() {
		serverMu.Lock()
		all := append([]*LBServer(nil), servers...)
		serverMu.Unlock()
		for _, lb := range all {
			lb.DrainRemaining()
		}
	}
	grace := model.DrainGrace(cfg.SLO, cfg.Heavy)
	horizon := cfg.Trace.Duration() + grace
	select {
	case <-done:
	case transportErr = <-tpFailed:
	case transportErr = <-reshardFailed:
	case <-time.After(clock.WallDuration(horizon)): //diffvet:allow walltime — shutdown watchdog must fire on wall time even if the trace clock stalls
		drainAll()
		select {
		case <-done:
		case transportErr = <-tpFailed:
		case transportErr = <-reshardFailed:
		case <-time.After(clock.WallDuration(grace) + 2*time.Second): //diffvet:allow walltime — drain grace watchdog must fire on wall time even if the trace clock stalls
		}
	}
	drainAll()
	cancel()
	collected.Wait()
	loopDone.Wait()
	if transportErr == nil {
		// The failure may have raced with normal completion.
		select {
		case transportErr = <-tpFailed:
		default:
			select {
			case transportErr = <-reshardFailed:
			default:
			}
		}
	}
	if transportErr != nil {
		return nil, fmt.Errorf("cluster: %s transport failed mid-run: %w", tp.Name(), transportErr)
	}

	ref, err := fid.NewReference(realFeats)
	if err != nil {
		return nil, fmt.Errorf("cluster: building FID reference: %w", err)
	}
	serverMu.Lock()
	allServers := append([]*LBServer(nil), servers...)
	serverMu.Unlock()
	col := allServers[0].Collector()
	if len(allServers) > 1 {
		// Merge the per-shard collectors — retired shards included —
		// into one run-level view. The run is over: no shard is
		// recording anymore.
		col = metrics.NewCollector()
		for _, lb := range allServers {
			col.Merge(lb.Collector())
		}
	}
	return &Result{
		Collector:   col,
		Reference:   ref,
		Plans:       loop.Plans(),
		Queries:     len(arrivals),
		Transport:   tp.Name(),
		LBShards:    shardCount,
		WallSeconds: time.Since(wallStart).Seconds(), //diffvet:allow walltime — WallSeconds measures real elapsed time for the run report
	}, nil
}
