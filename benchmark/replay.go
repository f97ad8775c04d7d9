package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/controller"
	"diffserve/internal/fid"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/metrics"
	"diffserve/internal/stats"
	"diffserve/internal/system"
	"diffserve/internal/trace"
)

const (
	simTraceSecondsPerSecond = 600 // simulated trace-seconds per second asked for
	simWindows               = 8   // times the demand curve is replayed
	simWindowIDStride        = 1_000_000
	timelineBucketSeconds    = 10
	timelineMinFIDSamples    = 48
	probeIDOffset            = 9_000_000 // into the seed's block: query IDs no window touches

	// cluster_trace replays at 200x: 5 ms of wall time per trace-second,
	// which puts the 5 s SLO at 25 ms of wall time — close enough to the
	// framework's own per-hop cost and the solver's that a saving in
	// either shows as SLO attainment.
	clusterTimescale             = 0.005
	clusterTraceSecondsPerSecond = 1 / clusterTimescale
	clusterShards                = 2
)

// replayMetrics fills the end-to-end metrics both replays share from a
// run's collector. queries is what was submitted: a query the
// collector never saw counts as a miss.
func replayMetrics(m map[string]float64, col *metrics.Collector, sum metrics.Summary, queries int) error {
	within := 0
	for _, r := range col.Records() {
		if !r.Violated() {
			within++
		}
	}
	// encoding/json rejects NaN, which is what FID is on too few served
	// images and the latencies are on none; say what happened instead.
	if math.IsNaN(sum.FID) || math.IsNaN(sum.MeanLatency) || math.IsNaN(sum.P99Latency) {
		return fmt.Errorf("FID %v, mean latency %v over %d records: run too short to score", sum.FID, sum.MeanLatency, col.Len())
	}
	m["latency_ms_mean"] = sum.MeanLatency * 1e3
	m["bench.latency_ms_p99"] = sum.P99Latency * 1e3
	m["slo_attainment"] = float64(within) / float64(queries)
	m["fid"] = sum.FID
	return nil
}

// duplicateID returns an ID the collector recorded twice, if any.
func duplicateID(col *metrics.Collector) (int, bool) {
	seen := make(map[int]struct{}, col.Len())
	for _, r := range col.Records() {
		if _, dup := seen[r.ID]; dup {
			return r.ID, true
		}
		seen[r.ID] = struct{}{}
	}
	return 0, false
}

// simWindow is one replayed window of the demand curve.
type simWindow struct {
	res  *system.Result
	sum  metrics.Summary
	wall float64 // build + run + summarize + timeline, seconds
}

// replayWindow replays the demand curve on a fresh System whose query
// IDs no other window uses, so no window is served from another's
// image cache, then summarizes it and builds its timeline.
func replayWindow(env *baselines.Env, demand *trace.Trace, seed uint64, w int, tr *tracer, root int32) (*simWindow, error) {
	start := time.Now()
	sp := tr.begin(spSystemBuild, root, w)
	sys, err := env.NewSystem(baselines.DiffServe, demand, baselines.Options{
		Workers: workers, SLO: sloSeconds, Seed: seed, QueryIDBase: queryBase(seed) + w*simWindowIDStride,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(spSystemRun, root, w)
	res, err := sys.Run()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(spSummarize, root, w)
	sum := res.Summary()
	tr.end(sp)
	sp = tr.begin(spTimeline, root, w)
	buckets, err := res.Collector.Timeline(timelineBucketSeconds, res.Reference, timelineMinFIDSamples)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	if want := int(demand.Duration() / timelineBucketSeconds); len(buckets) < want {
		return nil, fmt.Errorf("window %d: timeline has %d buckets, want at least %d", w, len(buckets), want)
	}
	return &simWindow{res: res, sum: sum, wall: wall}, nil
}

func runSimReplay(cfg runCfg) (*outcome, error) {
	env, setupS, err := repeatSetup(cfg.setupRepeats, newEnv, func(*baselines.Env) {})
	if err != nil {
		return nil, err
	}
	duration := float64(scaled(cfg.seconds, simTraceSecondsPerSecond/simWindows, 60))

	tr, root := startTrace(cfg, 4*simWindows+16)
	runtime.GC()
	before := snapshotProc()
	sp := tr.begin(spTraceSynth, root, 0)
	demand, err := azureTrace(duration)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// The demand curve is replayed simWindows times, each time with the
	// same arrivals and another block of queries, so that throughput has
	// several like samples to take a median of; one long Run gives one,
	// and that one moves 9 % between runs on a shared box.
	windows := make([]*simWindow, simWindows)
	for w := range windows {
		if windows[w], err = replayWindow(env, demand, cfg.seed, w, tr, root); err != nil {
			return nil, err
		}
	}
	tr.end(root)
	after := snapshotProc()

	// Fold the windows: every arrival must have ended as exactly one
	// record, served or dropped, and the merged records are scored
	// against the real images of all arrivals.
	out := &outcome{metrics: map[string]float64{}, spans: tr}
	col := metrics.NewCollector()
	real := stats.NewMomentAccumulator(env.Space.Dim())
	var rates []float64
	var solveS float64
	for w, win := range windows {
		out.attempted += win.res.Queries
		if n := win.res.Collector.Len(); n != win.res.Queries {
			out.failed += abs(win.res.Queries - n)
			out.problemf("window %d: %d records for %d arrivals", w, n, win.res.Queries)
		}
		col.Merge(win.res.Collector)
		for i := 0; i < win.res.Queries; i++ {
			real.Add(env.Space.SampleQuery(queryBase(cfg.seed) + w*simWindowIDStride + i).Truth)
		}
		rates = append(rates, float64(win.res.Queries)/win.wall)
		solveS += win.res.MeanSolveSeconds * float64(len(win.res.Plans))
	}
	if id, dup := duplicateID(col); dup {
		out.problemf("query %d recorded twice", id)
	}
	// The simulator is bit-deterministic: the same window again, images
	// now cached, must summarize identically.
	again, err := replayWindow(env, demand, cfg.seed, 0, nil, -1)
	if err != nil {
		return nil, err
	}
	if again.sum != windows[0].sum {
		out.problemf("window 0 replayed twice differs: %+v vs %+v", windows[0].sum, again.sum)
	}
	ref, err := fid.NewReferenceFromAccumulator(real)
	if err != nil {
		return nil, fmt.Errorf("reference over %d arrivals: %w", real.Count(), err)
	}
	sum := col.Summarize(ref)

	m := out.metrics
	m["setup_s"] = setupS
	m["ops_per_s"] = quantile(rates, 0.50)
	if err := replayMetrics(m, col, sum, out.attempted); err != nil {
		return nil, err
	}
	if !cfg.traced {
		return out, nil
	}

	runS := tr.total(spSystemRun)
	m["trace.synth_ms"] = tr.total(spTraceSynth) * 1e3
	m["system.build_ms"] = tr.total(spSystemBuild) * 1e3
	m["system.run_s"] = runS
	m["metrics.summarize_ms"] = tr.total(spSummarize) * 1e3
	m["metrics.timeline_ms"] = tr.total(spTimeline) * 1e3
	m["bench.span_coverage"] = (tr.total(spTraceSynth) + tr.total(spSystemBuild) + runS + tr.total(spSummarize) + tr.total(spTimeline)) / tr.total(spRun)
	m["system.solve_share"] = solveS / runS
	m["system.allocs_per_query"] = float64(after.mallocs-before.mallocs) / float64(out.attempted)
	m["system.defer_share"] = sum.DeferRatio
	m["system.drop_share"] = sum.DropRatio
	processMetrics(m, before, after, out.attempted)
	modelProbe(env, cfg.seed, m)
	return out, nil
}

// modelProbe times what a worker pays per query for real: generating
// the light image and scoring it, on IDs nothing has cached yet.
func modelProbe(env *baselines.Env, seed uint64, m map[string]float64) {
	var gen, score time.Duration
	for i := 0; i < sampleSize; i++ {
		t0 := time.Now()
		q := env.Space.SampleQuery(queryBase(seed) + probeIDOffset + i)
		img := env.Space.GenerateDeterministic(q, env.Light.Name, env.Light.Gen)
		t1 := time.Now()
		confidenceSink = env.Scorer.Confidence(q, img)
		gen += t1.Sub(t0)
		score += time.Since(t1)
	}
	m["imagespace.generate_us_per_query"] = gen.Seconds() * 1e6 / sampleSize
	m["discriminator.confidence_us_per_query"] = score.Seconds() * 1e6 / sampleSize
}

var confidenceSink float64

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// clusterFixture is what cluster.Run needs beyond the Env.
type clusterFixture struct {
	env  *baselines.Env
	ctrl *controller.Controller
}

func runClusterTrace(cfg runCfg) (*outcome, error) {
	fx, setupS, err := repeatSetup(cfg.setupRepeats, func() (clusterFixture, error) {
		env, err := newEnv()
		if err != nil {
			return clusterFixture{}, err
		}
		alloc, err := allocator.NewMILP(allocConfig(env))
		if err != nil {
			return clusterFixture{}, err
		}
		ctrl, err := controller.New(controller.Config{Alloc: alloc})
		return clusterFixture{env, ctrl}, err
	}, func(clusterFixture) {})
	if err != nil {
		return nil, err
	}
	env := fx.env
	duration := float64(scaled(cfg.seconds, clusterTraceSecondsPerSecond, 40))
	demand, err := azureTrace(duration)
	if err != nil {
		return nil, err
	}

	tr, root := startTrace(cfg, 16)
	runtime.GC()
	before := snapshotProc()
	sp := tr.begin(spClusterRun, root, 0)
	// Open loop: cluster.Run's one submitter sends each query when its
	// arrival time comes, whatever the backlog, and stamps it with that
	// due time, so latency counts the wait a stall imposes on the
	// queries behind it.
	res, err := cluster.Run(cluster.HarnessConfig{
		Space: env.Space, Light: env.Light, Heavy: env.Heavy, Scorer: env.Scorer,
		Mode: loadbalancer.ModeCascade, Workers: workers, SLO: sloSeconds,
		Trace: demand, Ctrl: fx.ctrl, Timescale: clusterTimescale, Seed: cfg.seed, QueryIDBase: queryBase(cfg.seed),
		DisableLoadDelay: true, Transport: cluster.TransportTCP, LBShards: clusterShards,
	})
	tr.end(sp)
	if err != nil {
		// A fatal transport error fails the run as a whole.
		return nil, fmt.Errorf("cluster.Run: %w", err)
	}
	sp = tr.begin(spSummarize, root, 0)
	sum := res.Summary()
	tr.end(sp)
	tr.end(root)
	after := snapshotProc()

	col := res.Collector
	unresolved := res.Queries - col.Len()
	out := &outcome{attempted: res.Queries, failed: abs(unresolved), metrics: map[string]float64{}, spans: tr}
	if unresolved < 0 {
		out.problemf("%d records for %d submitted queries", col.Len(), res.Queries)
	}
	if id, dup := duplicateID(col); dup {
		out.problemf("query %d resolved twice", id)
	}

	m := out.metrics
	m["setup_s"] = setupS
	m["ops_per_s"] = float64(col.Len()) / res.WallSeconds
	if err := replayMetrics(m, col, sum, res.Queries); err != nil {
		return nil, err
	}
	if !cfg.traced {
		return out, nil
	}

	m["bench.span_coverage"] = (tr.total(spClusterRun) + tr.total(spSummarize)) / tr.total(spRun)
	m["metrics.summarize_ms"] = tr.total(spSummarize) * 1e3
	m["cluster.trace.wall_overrun_ratio"] = res.WallSeconds/(duration*clusterTimescale) - 1
	m["controller.ticks_done_share"] = float64(len(res.Plans)) / (duration / fx.ctrl.Interval())
	m["cluster.trace.drop_share"] = sum.DropRatio
	m["cluster.trace.defer_share"] = sum.DeferRatio
	m["cluster.trace.mean_latency_s"] = sum.MeanLatency
	m["cluster.trace.unresolved"] = float64(unresolved)
	processMetrics(m, before, after, res.Queries)
	return out, nil
}
