package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/cascade"
	"diffserve/internal/controller"
	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/model"
	"diffserve/internal/queueing"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

type fixtures struct {
	space  *imagespace.Space
	light  *model.Variant
	heavy  *model.Variant
	scorer discriminator.Scorer
	prof   *cascade.DeferralProfile
}

func newFixtures(t testing.TB) *fixtures {
	t.Helper()
	rng := stats.NewRNG(808)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	light, heavy := reg.MustGet("sdturbo"), reg.MustGet("sdv15")
	d, err := discriminator.New(discriminator.Config{
		Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
	}, rng.Stream("disc"))
	if err != nil {
		t.Fatal(err)
	}
	casc, err := cascade.New(space, light, heavy, d)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := cascade.ProfileDeferral(casc, space.SampleQueries(900000, 600))
	if err != nil {
		t.Fatal(err)
	}
	return &fixtures{space: space, light: light, heavy: heavy, scorer: d, prof: prof}
}

func (f *fixtures) controller(t testing.TB, workers int, slo float64) *controller.Controller {
	t.Helper()
	a, err := allocator.NewMILP(allocator.Config{
		Light: f.light, Heavy: f.heavy,
		DiscPerImage: f.scorer.PerImageLatency(),
		Deferral:     f.prof,
		TotalWorkers: workers,
		SLO:          slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(controller.Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestClockTimescale(t *testing.T) {
	c := NewClock(0.01)
	if c.Timescale() != 0.01 {
		t.Errorf("timescale = %v", c.Timescale())
	}
	start := time.Now()
	c.WaitUntil(context.Background(), c.Now()+1, nil) // 1 trace second = 10ms wall
	if wall := time.Since(start); wall < 8*time.Millisecond || wall > 250*time.Millisecond {
		t.Errorf("scaled wait took %v", wall)
	}
	if now := c.Now(); now < 0.5 || now > 30 {
		t.Errorf("trace now = %v", now)
	}
	c.WaitUntil(context.Background(), -1, nil) // past deadline: no-op
	if NewClock(0).Timescale() != 1 {
		t.Error("zero timescale should default to 1")
	}
}

// TestClockRestartConcurrentReaders restarts a clock while goroutines
// read it, as the harness does after setup with worker loops running
// (run under -race by `make race`). Every reading is finite and at least
// zero, and a restart rewinds what a later reading sees.
func TestClockRestartConcurrentReaders(t *testing.T) {
	c := NewClock(0.001)
	c.WaitUntil(context.Background(), 50, nil)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if now := c.Now(); now < 0 || math.IsInf(now, 0) || math.IsNaN(now) {
					t.Errorf("Now() = %v during restarts", now)
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		c.Restart()
	}
	if now := c.Now(); now >= 50 {
		t.Errorf("Now() = %v after Restart, want the rewound clock", now)
	}
	close(stop)
	readers.Wait()
}

// The four tests below drive an LBServer and a WorkerServer the way a
// remote peer does: through a conn of the tcp transport.

func TestLBServerQueryCompleteRoundTrip(t *testing.T) {
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 5,
		LightMinExec: 0.1, HeavyMinExec: 1.78, Clock: NewClock(0.01), Seed: 1,
	})
	tp := newTCPTransport()
	defer tp.Close()
	conn := serveTestLB(t, tp, lb)
	ctx := context.Background()

	if err := conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: 7, Arrival: 0.001}}}); err != nil {
		t.Fatal(err)
	}
	// Pull it as a light worker.
	pulled, err := pull(ctx, conn, PullRequest{WorkerID: 0, Role: "light", Max: 4, Wait: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(pulled.Queries) != 1 || pulled.Queries[0].ID != 7 {
		t.Fatalf("pulled %+v", pulled.Queries)
	}
	// Complete it above threshold (threshold defaults to 0).
	err = conn.Complete(ctx, CompleteRequest{
		WorkerID: 0, Role: "light",
		Items: []CompleteItem{{ID: 7, Arrival: 0.001, Variant: "sdturbo", Features: []float64{1}, Confidence: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pollResults(ctx, conn, ResultsRequest{Max: 4, Wait: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 {
		t.Fatalf("results = %+v, want the one query", res.Results)
	}
	if r := res.Results[0]; r.ID != 7 || r.Dropped || r.Variant != "sdturbo" || r.Deferred {
		t.Errorf("result = %+v", r)
	}
	if lb.Collector().Len() != 1 {
		t.Errorf("collector has %d records", lb.Collector().Len())
	}
}

func TestLBServerDefersBelowThreshold(t *testing.T) {
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 50,
		LightMinExec: 0.1, HeavyMinExec: 1.78, Clock: NewClock(0.01), Seed: 1,
	})
	tp := newTCPTransport()
	defer tp.Close()
	conn := serveTestLB(t, tp, lb)
	ctx := context.Background()

	// Raise the threshold so the completion defers.
	if err := conn.Configure(ctx, ConfigureLBRequest{Threshold: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: 1, Arrival: 0.001}}}); err != nil {
		t.Fatal(err)
	}
	if pulled, err := pull(ctx, conn, PullRequest{Role: "light", Max: 1, Wait: 500}); err != nil || len(pulled.Queries) != 1 {
		t.Fatalf("pulled %+v, err %v", pulled.Queries, err)
	}
	// Low-confidence completion: must land on the heavy queue.
	err := conn.Complete(ctx, CompleteRequest{
		Role:  "light",
		Items: []CompleteItem{{ID: 1, Arrival: 0.001, Variant: "sdturbo", Confidence: 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := conn.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HeavyQueueLen != 1 {
		t.Errorf("heavy queue = %d, want 1 (deferred)", stats.HeavyQueueLen)
	}
}

func TestLBServerShedsExpired(t *testing.T) {
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 0.5,
		LightMinExec: 0.1, HeavyMinExec: 1.78, Clock: NewClock(0.001), Seed: 1,
	})
	tp := newTCPTransport()
	defer tp.Close()
	conn := serveTestLB(t, tp, lb)
	ctx := context.Background()

	if err := conn.SubmitBatch(ctx, SubmitRequest{Queries: []QueryMsg{{ID: 9, Arrival: 0.0001}}}); err != nil {
		t.Fatal(err)
	}
	// Wait past the deadline in trace time, then pull: the item must
	// be shed, not served.
	time.Sleep(5 * time.Millisecond) // 5 trace seconds at 0.001 scale
	pulled, err := pull(ctx, conn, PullRequest{Role: "light", Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pulled.Queries) != 0 {
		t.Errorf("expired query was handed out: %+v", pulled.Queries)
	}
	res, err := pollResults(ctx, conn, ResultsRequest{Max: 4, Wait: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || res.Results[0].ID != 9 || !res.Results[0].Dropped {
		t.Errorf("results = %+v, want query 9 dropped", res.Results)
	}
}

// TestLBServerStatsShedsExpired pins that the stats poll sheds expired
// queue heads before it snapshots and counts, as the simulator's
// control tick does: a query waiting in a pool no worker pulls from
// still resolves, as a drop, and the controller sees it as a timeout.
func TestLBServerStatsShedsExpired(t *testing.T) {
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 5,
		LightMinExec: 0.1, HeavyMinExec: 1.78, Clock: NewClock(1), Seed: 1,
	})
	// Both arrivals are back-dated past their deadline; the second sits
	// in the heavy pool the way a deferred query does.
	lb.SubmitBatchReq(SubmitRequest{Queries: []QueryMsg{{ID: 1, Arrival: -10}}})
	lb.resMu.Lock()
	lb.live[2] = lbQuery{arrival: -10}
	lb.resMu.Unlock()
	lb.pools[loadbalancer.PoolHeavy].push(lb.cfg.Clock.Now(), false, queueing.Item{ID: 2, Arrival: -10})

	st := lb.Stats()
	if st.TimeoutsSinceTick != 2 || st.Dropped != 2 || st.ArrivalsSinceTick != 1 {
		t.Errorf("stats = %+v, want 2 timeouts, 2 dropped, 1 arrival", st)
	}
	if st.LightQueueLen != 0 || st.HeavyQueueLen != 0 {
		t.Errorf("expired queries still queued: %d light, %d heavy", st.LightQueueLen, st.HeavyQueueLen)
	}
	var res ResultsResponse
	lb.PollResultsInto(context.Background(), ResultsRequest{Max: 4}, &res)
	if len(res.Results) != 2 || !res.Results[0].Dropped || !res.Results[1].Dropped {
		t.Errorf("results = %+v, want queries 1 and 2 dropped", res.Results)
	}
}

// TestLeaseRedeliveryCountsPerQuery pins that LeaseRedeliveries bounds
// the reclaims of a query, not of one queued copy of it: a zombie's late
// light report that defers a reclaimed query to the heavy pool does not
// reset its count, so the heavy puller's death sheds it. Once it is
// shed, its reclaimed copy still in the light pool is not counted as
// queued, and the re-queue never counted as an arrival.
func TestLeaseRedeliveryCountsPerQuery(t *testing.T) {
	// 20 ms per trace-second: the run takes about 6 trace-seconds, and
	// both pools' arrivals must stay inside their 10-s rate window for
	// the final rates to compare, which leaves a stalled host 80 ms.
	clock := NewClock(0.02)
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1e9,
		LightMinExec: 0.1, HeavyMinExec: 1.78, Clock: clock, Seed: 1,
		LeaseDuration: 0.5, LeaseRedeliveries: 1,
	})
	lb.Configure(ConfigureLBRequest{Threshold: 0.5})
	ctx := context.Background()

	lb.SubmitBatchReq(SubmitRequest{Queries: []QueryMsg{{ID: 1}}})
	var light, heavy PullResponse
	lb.PullInto(ctx, PullRequest{WorkerID: 1, Role: "light", Max: 8}, &light)
	if len(light.Queries) != 1 {
		t.Fatalf("light pull = %+v, want query 1", light)
	}
	// Worker 1 goes silent past its lease's hard deadline.
	clock.WaitUntil(ctx, clock.Now()+3, nil)
	if st := lb.Stats(); st.Reclaims != 1 {
		t.Fatalf("stats = %+v, want 1 reclaim", st)
	}
	// Its late report defers the reclaimed query to the heavy pool.
	lb.Complete(CompleteRequest{WorkerID: 1, Role: "light", LeaseDeadline: light.LeaseDeadline, Items: []CompleteItem{
		{ID: 1, Arrival: light.Queries[0].Arrival, Variant: "sdturbo", Confidence: 0.1},
	}})
	lb.PullInto(ctx, PullRequest{WorkerID: 2, Role: "heavy", Max: 8}, &heavy)
	if len(heavy.Queries) != 1 {
		t.Fatalf("heavy pull = %+v, want the deferred query 1", heavy)
	}
	// Worker 2 dies too: the query's second reclaim exceeds the bound.
	clock.WaitUntil(ctx, clock.Now()+3, nil)
	st := lb.Stats()
	if st.Reclaims != 1 || st.ShedRedelivery != 1 || st.InFlight != 0 || st.Dropped != 1 {
		t.Errorf("stats = %+v, want 1 reclaim, 1 redelivery shed, 0 in flight, 1 dropped", st)
	}
	// The light pool still held the first reclaim's copy when the query
	// was shed: it no longer counts as queued, and its re-queue never
	// counted as an arrival, so each pool saw the query arrive once.
	if st.LightQueueLen != 0 || st.HeavyQueueLen != 0 {
		t.Errorf("stats = %+v, want both queues empty once query 1 is shed", st)
	}
	if st.LightArrivalRate != st.HeavyArrivalRate {
		t.Errorf("arrival rates light %v, heavy %v: want one arrival in each pool", st.LightArrivalRate, st.HeavyArrivalRate)
	}
	var res ResultsResponse
	lb.PollResultsInto(ctx, ResultsRequest{Max: 4}, &res)
	if len(res.Results) != 1 || res.Results[0].ID != 1 || !res.Results[0].Dropped {
		t.Errorf("results = %+v, want query 1 dropped", res.Results)
	}
}

func TestWorkerConfigureAndStats(t *testing.T) {
	f := newFixtures(t)
	ws := NewWorkerServer(WorkerConfig{
		ID: 3, Space: f.space,
		Light: f.light, Heavy: f.heavy, Scorer: f.scorer, Clock: NewClock(0.001),
		DisableLoadDelay: true,
	})
	tp := newTCPTransport()
	defer tp.Close()
	conn, err := tp.ServeWorker(ws)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := conn.Configure(ctx, ConfigureWorkerRequest{Role: "light", Batch: 8}); err != nil {
		t.Fatal(err)
	}
	st, err := conn.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "light" {
		t.Errorf("stats = %+v", st)
	}
	if b := ws.state.Batch(); b != 8 {
		t.Errorf("worker batch = %d after configuring 8 over tcp", b)
	}
}

func TestHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness skipped in -short mode")
	}
	f := newFixtures(t)
	tr, err := trace.Static(8, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(HarnessConfig{
		Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
		Mode: loadbalancer.ModeCascade, Workers: 8, SLO: 5,
		Trace: tr, Ctrl: f.controller(t, 8, 5),
		Timescale: 0.05, Seed: 42, DisableLoadDelay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries replayed")
	}
	if res.Collector.Len() < res.Queries*9/10 {
		t.Errorf("recorded %d of %d queries", res.Collector.Len(), res.Queries)
	}
	sum := res.Summary()
	if math.IsNaN(sum.FID) {
		t.Error("FID not computable")
	}
	// At 8 QPS with 8 workers, the cluster must serve nearly everything.
	if sum.ViolationRatio > 0.15 {
		t.Errorf("violation ratio = %v, too high for light load", sum.ViolationRatio)
	}
	// The cascade must actually defer some queries.
	if sum.DeferRatio == 0 {
		t.Error("no deferrals observed")
	}
	if len(res.Plans) == 0 {
		t.Error("no plans applied")
	}
	t.Logf("cluster run: FID=%.2f viol=%.3f defer=%.2f wall=%.1fs", sum.FID, sum.ViolationRatio, sum.DeferRatio, res.WallSeconds)
}

func TestHarnessValidation(t *testing.T) {
	f := newFixtures(t)
	tr, _ := trace.Static(2, 5, 1)
	good := HarnessConfig{
		Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
		Mode: loadbalancer.ModeCascade, Workers: 2, SLO: 5,
		Trace: tr, Ctrl: f.controller(t, 2, 5),
	}
	cases := []func(*HarnessConfig){
		func(c *HarnessConfig) { c.Space = nil },
		func(c *HarnessConfig) { c.Workers = 0 },
		func(c *HarnessConfig) { c.SLO = 0 },
		func(c *HarnessConfig) { c.Trace = nil },
		func(c *HarnessConfig) { c.Ctrl = nil },
		func(c *HarnessConfig) { c.Scorer = nil },
	}
	for i, mod := range cases {
		bad := good
		mod(&bad)
		if _, err := Run(bad); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestBuildDrivesNothing holds build to assembling the cluster: on one
// LB and on two shards, over inproc, every worker is still idle (no
// plan was applied), the frontend exists exactly on the sharded tier,
// the arrivals, their reference features and an initial plan that
// assigns workers are ready, and no goroutine was started.
func TestBuildDrivesNothing(t *testing.T) {
	f := newFixtures(t)
	tr, err := trace.Static(8, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := HarnessConfig{
				Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
				Mode: loadbalancer.ModeCascade, Workers: 4, SLO: 5,
				Trace: tr, Ctrl: f.controller(t, 4, 5),
				Timescale: 0.01, Seed: 3, DisableLoadDelay: true,
				LBShards: shards,
			}
			before := runtime.NumGoroutine()
			r, err := build(cfg, localTransport{})
			if err != nil {
				t.Fatal(err)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("build started goroutines: %d before, %d after", before, after)
			}
			for i, w := range r.workers {
				if role := w.Stats().Role; role != "idle" {
					t.Errorf("worker %d has role %q before the replay, want idle", i, role)
				}
			}
			if (r.frontend != nil) != (shards > 1) {
				t.Errorf("frontend %v on %d shards", r.frontend, shards)
			}
			if n := len(r.arrivals); n == 0 || len(r.realFeats) != n {
				t.Errorf("%d arrivals, %d reference features", n, len(r.realFeats))
			}
			if r.plan.LightWorkers+r.plan.HeavyWorkers == 0 {
				t.Errorf("initial plan %v assigns no worker", r.plan)
			}
		})
	}
}

// slowServeTransport is the in-process transport with a worker's
// serving taking 10 wall-ms, so a 16-worker build takes 160 ms: 16
// trace-seconds at timescale 0.01.
type slowServeTransport struct{ localTransport }

func (t slowServeTransport) ServeWorker(s *WorkerServer) (WorkerConn, error) {
	time.Sleep(10 * time.Millisecond)
	return t.localTransport.ServeWorker(s)
}

// TestHarnessSetupCostsNoTraceTime replays a light trace after a slow
// setup. Setup takes most of the 20-second trace in trace time, so a
// worker whose role or first wait were stamped on the clock before its
// restart stays unavailable for most of the replay, and queries drop.
func TestHarnessSetupCostsNoTraceTime(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness skipped in -short mode")
	}
	f := newFixtures(t)
	tr, err := trace.Static(8, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := slowServeTransport{}
	r, err := build(HarnessConfig{
		Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
		Mode: loadbalancer.ModeCascade, Workers: 16, SLO: 5,
		Trace: tr, Ctrl: f.controller(t, 16, 5),
		Timescale: 0.01, Seed: 1, DisableLoadDelay: true,
	}, tp)
	if err != nil {
		t.Fatal(err)
	}
	col, err := r.replayWall()
	if err != nil {
		t.Fatal(err)
	}
	drop, viol := col.DropRatio(), col.SLOViolationRatio()
	if drop != 0 {
		t.Errorf("drop ratio %.3f after a slow setup, want 0", drop)
	}
	if viol > 0.05 {
		t.Errorf("violation ratio %.3f after a slow setup, want <= 0.05", viol)
	}
	t.Logf("%d queries: drop %.3f, violation %.3f", col.Len(), drop, viol)
}
