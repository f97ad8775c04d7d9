// Package system wires the complete DiffServe serving system inside a
// discrete-event simulator: trace-driven Poisson arrivals enter the
// load balancer, workers batch and execute model inference using
// profiled latencies, the discriminator cascades low-confidence
// queries from the light to the heavy pool, and the controller
// periodically re-solves resource allocation — the simulator
// counterpart of the paper's testbed (§4.1).
//
// The data-path policy itself — routing, shedding, dequeueing, the
// deferral verdict, resolution records and tick counters, keep-in-place
// role assignment — is not written here: the simulator and the cluster
// runtime (internal/cluster) both call internal/loadbalancer and
// worker.AssignRoles. This package keeps what is the simulator's: the
// event ring, worker timing and image generation.
//
// A run uses two goroutines. Every query, image and score is a pure
// function of (query ID, variant), so Run starts a producer that walks
// the arrivals in order ahead of the event loop: it samples each query
// into the run's query table, streams its ground truth into the FID
// reference and, in the cascade, generates and scores its light image.
// It hands the table over in fixed blocks on a channel; the event loop
// receives a block before it reads an entry in it, and generates heavy
// images itself when a batch completes.
//
// One deliberate simplification: queues live at pool granularity (one
// light queue, one heavy queue) rather than per worker. Idle workers
// pull from their pool's queue, which is work-conserving and
// equivalent to per-worker queues with join-shortest-queue dispatch;
// the controller's Little's-law inputs aggregate identically.
package system

import (
	"fmt"

	"diffserve/internal/allocator"
	"diffserve/internal/controller"
	"diffserve/internal/discriminator"
	"diffserve/internal/fid"
	"diffserve/internal/imagespace"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/metrics"
	"diffserve/internal/model"
	"diffserve/internal/queueing"
	"diffserve/internal/simring"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
	"diffserve/internal/worker"
)

// Config assembles a full serving system.
type Config struct {
	// Space generates queries and images.
	Space *imagespace.Space
	// Light and Heavy are the cascade's variants.
	Light, Heavy *model.Variant
	// Scorer is the cascade discriminator (used in ModeCascade).
	Scorer discriminator.Scorer
	// Workers is the device count S.
	Workers int
	// SLO is the latency deadline in seconds.
	SLO float64
	// Trace drives arrivals.
	Trace *trace.Trace
	// Controller owns the allocator and control loop settings.
	Controller *controller.Controller
	// Mode selects the routing policy.
	Mode loadbalancer.Mode
	// Seed drives arrival synthesis and random routing.
	Seed uint64
	// DisableModelLoadDelay makes role switches instantaneous (used by
	// tests and the simulator-vs-cluster comparison).
	DisableModelLoadDelay bool
	// QueryIDBase offsets query IDs so distinct experiments can draw
	// disjoint query populations from the same space.
	QueryIDBase int
}

func (c *Config) validate() error {
	switch {
	case c.Space == nil:
		return fmt.Errorf("system: Space required")
	case c.Light == nil || c.Heavy == nil:
		return fmt.Errorf("system: Light and Heavy variants required")
	case c.Scorer == nil && c.Mode == loadbalancer.ModeCascade:
		return fmt.Errorf("system: Scorer required in cascade mode")
	case c.Workers <= 0:
		return fmt.Errorf("system: Workers must be positive")
	case c.SLO <= 0:
		return fmt.Errorf("system: SLO must be positive")
	case c.Trace == nil:
		return fmt.Errorf("system: Trace required")
	case c.Controller == nil:
		return fmt.Errorf("system: Controller required")
	}
	return nil
}

// Result is the outcome of a simulated run.
type Result struct {
	// Collector holds every query record.
	Collector *metrics.Collector
	// Reference holds the ground-truth image moments of all arrived
	// queries, for FID scoring.
	Reference *fid.Reference
	// Plans is the controller's plan log.
	Plans []controller.PlanAt
	// Queries is the number of arrivals.
	Queries int
	// MeanSolveSeconds is the allocator's average solve time.
	MeanSolveSeconds float64
}

// Summary computes the end-to-end summary against the run's own
// reference set.
func (r *Result) Summary() metrics.Summary { return r.Collector.Summarize(r.Reference) }

// System is a runnable simulated serving system.
type System struct {
	cfg    Config
	sim    *simring.Sim
	lb     *loadbalancer.LB
	ledger loadbalancer.Ledger
	col    *metrics.Collector // the ledger's recorder
	ws     []*worker.Worker
	rng    *stats.RNG

	threshold float64

	// queries is the run's query table, indexed by ID - QueryIDBase.
	// The producer fills it in index order; entries [0, ready) are
	// visible to the event loop, and blocks delivers each new ready.
	queries []runQuery
	ready   int
	blocks  chan int
}

// runQuery is one arrival's entry in the run's query table.
type runQuery struct {
	q *imagespace.Query
	// light and conf are the light variant's image and the scorer's
	// confidence in it, filled ahead of time in ModeCascade only.
	light imagespace.Image
	conf  float64
}

// producerBlock is how many table entries the producer fills before it
// publishes them to the event loop.
const producerBlock = 512

// New builds a system from the config.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Mode != loadbalancer.ModeCascade {
		// The Clipper/Proteus baselines run no discriminator.
		cfg.Scorer = nil
	}
	rng := stats.NewRNG(cfg.Seed)
	s := &System{
		cfg: cfg,
		sim: simring.New(),
		lb: loadbalancer.New(cfg.Mode, rng,
			loadbalancer.NewPool(discriminator.LightExec(cfg.Light, cfg.Scorer, 1), cfg.SLO),
			loadbalancer.NewPool(cfg.Heavy.Latency.Latency(1), cfg.SLO)),
		col: metrics.NewCollector(),
		rng: rng,
	}
	s.ledger = loadbalancer.Ledger{SLO: cfg.SLO, Col: s.col}
	s.ws = make([]*worker.Worker, cfg.Workers)
	for i := range s.ws {
		s.ws[i] = worker.New(i)
	}
	return s, nil
}

// Run simulates the full trace and returns the result.
func (s *System) Run() (*Result, error) {
	// Synthesize arrivals; a producer goroutine samples the query
	// population ahead of the event loop, streaming the ground-truth
	// image moments for the FID reference instead of materializing
	// every real feature vector.
	arrivals := s.cfg.Trace.Arrivals(s.rng.Stream("trace"))
	realAcc := stats.NewMomentAccumulator(s.cfg.Space.Dim())
	s.startProducer(len(arrivals), realAcc)
	s.col.Grow(len(arrivals)) // one record per arrival
	for i, at := range arrivals {
		id, at := s.cfg.QueryIDBase+i, at
		s.sim.At(at, func() { s.onArrival(id, at) })
	}

	// Initial plan from the trace's starting rate, then periodic ticks.
	initialPlan, err := s.cfg.Controller.InitialPlan(s.cfg.Trace.RateAt(0))
	if err != nil {
		s.awaitProducer()
		return nil, err
	}
	s.applyPlan(0, initialPlan, true)

	interval := s.cfg.Controller.Interval()
	horizon := s.cfg.Trace.Duration()
	for t := interval; t <= horizon; t += interval {
		t := t
		s.sim.At(t, func() { s.onControlTick(t) })
	}

	// Run to the horizon plus a grace period that lets queued work
	// drain, then mark whatever is still queued as dropped.
	s.sim.Run(horizon + model.DrainGrace(s.cfg.SLO, s.cfg.Heavy))
	s.sim.Drain()
	s.dropRemaining()

	s.awaitProducer() // realAcc is complete once the producer is done
	ref, err := fid.NewReferenceFromAccumulator(realAcc)
	if err != nil {
		return nil, fmt.Errorf("system: building FID reference: %w", err)
	}
	return &Result{
		Collector:        s.col,
		Reference:        ref,
		Plans:            s.cfg.Controller.Plans(),
		Queries:          len(arrivals),
		MeanSolveSeconds: s.cfg.Controller.MeanSolveSeconds(),
	}, nil
}

// startProducer sizes the query table to the run's n arrivals and
// starts the goroutine that fills it. In index order it samples each
// query and adds its truth to acc — the reference's order of additions
// — and in ModeCascade, where every arrival is served by the light
// pool first, it also generates the light image and scores it. It
// publishes each filled block's end on s.blocks, which has room for
// every block, so it never blocks and finishes even if Run stops
// reading; it closes s.blocks when the table is full.
func (s *System) startProducer(n int, acc *stats.MomentAccumulator) {
	s.queries = make([]runQuery, n)
	s.blocks = make(chan int, (n+producerBlock-1)/producerBlock)
	cascade := s.cfg.Scorer != nil // New keeps a scorer in ModeCascade only
	go func() {
		defer close(s.blocks)
		for i := range s.queries {
			e := &s.queries[i]
			e.q = s.cfg.Space.SampleQuery(s.cfg.QueryIDBase + i)
			acc.Add(e.q.Truth)
			if cascade {
				e.light = s.cfg.Space.GenerateDeterministic(e.q, s.cfg.Light.Name, s.cfg.Light.Gen)
				e.conf = s.cfg.Scorer.Confidence(e.q, e.light)
			}
			if end := i + 1; end%producerBlock == 0 || end == n {
				s.blocks <- end
			}
		}
	}()
}

// entry returns query id's table entry, first receiving block ends
// from the producer until the entry is covered; the receive orders the
// producer's writes before the event loop's reads.
func (s *System) entry(id int) *runQuery {
	i := id - s.cfg.QueryIDBase
	for i >= s.ready {
		end, ok := <-s.blocks
		if !ok {
			panic(fmt.Sprintf("system: query %d is not in the run's table", id))
		}
		s.ready = end
	}
	return &s.queries[i]
}

// awaitProducer waits for the producer to fill the whole table.
func (s *System) awaitProducer() {
	for range s.blocks {
	}
}

// onArrival admits a query into the system.
func (s *System) onArrival(id int, at float64) {
	s.ledger.Arrive(1)
	s.lb.Route(s.sim.Now(), queueing.Item{ID: id, Arrival: at})
	s.dispatchAll()
}

// drop resolves shed queries.
func (s *System) drop(shed []queueing.Item) {
	for _, it := range shed {
		s.ledger.Drop(it)
	}
}

// onControlTick runs one control period. Shedding here, not only at
// dispatch, keeps queue state honest when a pool temporarily has no
// workers — otherwise stranded items inflate the Little's-law wait
// forever and wedge the allocator in its best-effort fallback.
func (s *System) onControlTick(t float64) {
	now := s.sim.Now()
	s.drop(s.lb.Light.Shed(now))
	s.drop(s.lb.Heavy.Shed(now))
	snap := s.lb.Snap(t)
	arrivals, violations := s.ledger.Tick()
	plan, err := s.cfg.Controller.Tick(t, controller.TickInput{
		Arrivals:         arrivals,
		LightQueueLen:    snap.Light.Len,
		HeavyQueueLen:    snap.Heavy.Len,
		LightArrivalRate: snap.Light.ArrivalRate,
		HeavyArrivalRate: snap.Heavy.ArrivalRate,
		SLOTimeouts:      violations,
	})
	if err != nil {
		// Control failures must not halt the data path; keep the
		// previous plan.
		return
	}
	s.applyPlan(t, plan, false)
	s.dispatchAll()
}

// applyPlan reconfigures threshold, batch sizes, and worker roles.
func (s *System) applyPlan(now float64, plan allocator.Plan, initial bool) {
	s.threshold = plan.Threshold
	if s.cfg.Mode == loadbalancer.ModeRandomSplit {
		s.lb.SetSplit(plan.DeferFraction)
	}
	current := make([]worker.Role, len(s.ws))
	for i, w := range s.ws {
		current[i] = w.Role()
	}
	for i, role := range worker.AssignRoles(current, plan.LightWorkers, plan.HeavyWorkers) {
		// Assign charges the load time only when the role changes.
		batch, load := 0, 0.0
		switch role {
		case worker.RoleLight:
			batch, load = plan.LightBatch, s.cfg.Light.LoadSeconds
		case worker.RoleHeavy:
			batch, load = plan.HeavyBatch, s.cfg.Heavy.LoadSeconds
		}
		if s.cfg.DisableModelLoadDelay || initial {
			load = 0
		}
		w := s.ws[i]
		w.Assign(now, role, batch, load)
		if at, ok := w.ReadyAt(); ok && at > now {
			s.sim.At(at, func() { s.dispatchAll() })
		}
	}
}

// dispatchAll starts batches on every available worker with queued work.
func (s *System) dispatchAll() {
	now := s.sim.Now()
	for _, w := range s.ws {
		if !w.Available(now) {
			continue
		}
		switch w.Role() {
		case worker.RoleLight:
			s.dispatch(w, loadbalancer.PoolLight)
		case worker.RoleHeavy:
			s.dispatch(w, loadbalancer.PoolHeavy)
		}
	}
}

// dispatch pulls work for one available worker from its pool queue.
func (s *System) dispatch(w *worker.Worker, pool loadbalancer.PoolID) {
	now := s.sim.Now()
	shed, items := s.lb.Queue(pool).Dequeue(now, w.Batch(), nil)
	s.drop(shed)
	if len(items) == 0 {
		return
	}
	exec := s.cfg.Heavy.Latency.Latency(len(items))
	if pool == loadbalancer.PoolLight {
		exec = discriminator.LightExec(s.cfg.Light, s.cfg.Scorer, len(items))
	}
	done := w.StartBatch(now, len(items), exec)
	s.sim.At(done, func() { s.onBatchDone(pool, items) })
}

// onBatchDone finalizes a batch: generates images, applies the
// cascade's discriminator, completes or defers each query.
func (s *System) onBatchDone(pool loadbalancer.PoolID, items []queueing.Item) {
	now := s.sim.Now()
	variant := s.cfg.Light
	if pool == loadbalancer.PoolHeavy {
		variant = s.cfg.Heavy
	}
	for _, it := range items {
		e := s.entry(it.ID)
		var img imagespace.Image
		conf := 0.0
		if pool == loadbalancer.PoolLight && s.cfg.Scorer != nil {
			img, conf = e.light, e.conf // filled by the producer
		} else {
			img = s.cfg.Space.GenerateDeterministic(e.q, variant.Name, variant.Gen)
		}
		if loadbalancer.Defers(s.cfg.Mode, pool, conf, s.threshold) {
			s.lb.Heavy.Push(now, it)
			continue
		}
		s.ledger.Complete(it, now, pool, img, conf)
	}
	s.dispatchAll()
}

// dropRemaining records still-queued items as dropped after the run.
func (s *System) dropRemaining() {
	for _, q := range []*loadbalancer.Pool{s.lb.Light, s.lb.Heavy} {
		s.drop(q.Pop(s.sim.Now(), q.Len()))
	}
}
