package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/baselines"
	"diffserve/internal/cascade"
	"diffserve/internal/cluster"
	"diffserve/internal/controller"
	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/model"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

// Fig7Result reproduces Fig 7: the discriminator-design ablation
// (ResNet w GT, ViT w GT, EfficientNet w Fake, EfficientNet w GT) as
// FID-vs-latency curves on the SD-Turbo and SDXS cascades.
type Fig7Result struct {
	// Curves maps "light+heavy" to per-design curves.
	Curves map[string]map[string][]Fig1aPoint
}

// Fig7 regenerates Figure 7.
func Fig7(cfg Config) (*Fig7Result, error) {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	space, err := imagespace.NewSpace(imagespace.DefaultSpaceConfig(), rng.Stream("space"))
	if err != nil {
		return nil, err
	}
	reg := model.BuiltinRegistry()
	queries, ref, err := offlineSet(space, cfg.Queries)
	if err != nil {
		return nil, err
	}

	fracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if cfg.Short {
		fracs = []float64{0, 0.3, 0.6, 1.0}
	}

	out := &Fig7Result{Curves: map[string]map[string][]Fig1aPoint{}}
	type curveJob struct {
		pairKey      string
		light, heavy *model.Variant
		disc         *discriminator.Discriminator
	}
	var jobs []curveJob
	for _, pairSpec := range [][2]string{{"sdturbo", "sdv15"}, {"sdxs", "sdv15"}} {
		light, heavy := reg.MustGet(pairSpec[0]), reg.MustGet(pairSpec[1])
		pairKey := pairSpec[0] + "+" + pairSpec[1]
		heavyMean := space.MeanArtifact(heavy.Gen)
		configs := []discriminator.Config{
			{Arch: discriminator.ArchResNet, Train: discriminator.TrainGT},
			{Arch: discriminator.ArchViT, Train: discriminator.TrainGT},
			{Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainFake, HeavyMeanArtifact: heavyMean},
			{Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT},
		}
		out.Curves[pairKey] = map[string][]Fig1aPoint{}
		for _, dc := range configs {
			d, err := discriminator.New(dc, rng.Stream("disc:"+pairKey+string(dc.Arch)+string(dc.Train)))
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, curveJob{pairKey: pairKey, light: light, heavy: heavy, disc: d})
		}
	}
	curves, err := fanOut(cfg.Parallelism, len(jobs), func(i int) ([]Fig1aPoint, error) {
		j := jobs[i]
		return cascadeCurve(space, j.light, j.heavy, j.disc, queries, ref, fracs)
	})
	if err != nil {
		return nil, err
	}
	for i, curve := range curves {
		out.Curves[jobs[i].pairKey][jobs[i].disc.Name()] = curve
	}
	return out, nil
}

// Render writes the Fig 7 tables.
func (r *Fig7Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 7 — discriminator design comparison (FID at matched latency)")
	for _, pair := range sortedKeys(r.Curves) {
		curves := r.Curves[pair]
		fmt.Fprintf(w, "\npair %s\n", pair)
		for _, name := range sortedKeys(curves) {
			fmt.Fprintf(w, "  %-20s", name)
			for _, p := range curves[name] {
				fmt.Fprintf(w, "  (%.2fs, %5.2f)", p.AvgLatency, p.FID)
			}
			fmt.Fprintln(w)
		}
	}
}

// Fig8Result reproduces Fig 8: the resource-allocation ablation
// (DiffServe vs. static threshold vs. no queuing model vs. AIMD
// batching) on the dynamic trace.
type Fig8Result struct {
	Summaries []Summary
	Timelines map[string][]TimelineBucket
}

// Fig8 regenerates Figure 8.
func Fig8(cfg Config) (*Fig8Result, error) {
	cfg = cfg.withDefaults()
	tr, err := azureTrace(cfg, 4, 32)
	if err != nil {
		return nil, err
	}
	env, err := baselines.NewEnv("cascade1", cfg.Seed+17, minInt(cfg.Queries, 2000))
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{Timelines: map[string][]TimelineBucket{}}
	apps := baselines.Ablations()
	runs, err := fanOut(cfg.Parallelism, len(apps), func(i int) (approachRun, error) {
		sum, buckets, err := runOnTrace(env, apps[i], tr, baselines.Options{Workers: cfg.Workers})
		return approachRun{sum: sum, buckets: buckets}, err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		out.Summaries = append(out.Summaries, r.sum)
		out.Timelines[string(apps[i])] = r.buckets
	}
	return out, nil
}

// Render writes the Fig 8 summary.
func (r *Fig8Result) Render(w io.Writer) {
	writeSummaries(w, "Figure 8 — resource allocation ablation (cascade 1, dynamic trace)", r.Summaries)
}

// Fig9Point is one SLO setting's outcome.
type Fig9Point struct {
	SLO            float64
	FID            float64
	ViolationRatio float64
}

// Fig9Result reproduces Fig 9: DiffServe's sensitivity to the SLO
// deadline on cascade 1.
type Fig9Result struct {
	Points []Fig9Point
}

// Fig9 regenerates Figure 9.
func Fig9(cfg Config) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	tr, err := azureTrace(cfg, 4, 32)
	if err != nil {
		return nil, err
	}
	slos := []float64{2, 3, 4, 5, 6, 8, 10}
	if cfg.Short {
		slos = []float64{3, 5, 10}
	}
	points, err := fanOut(cfg.Parallelism, len(slos), func(i int) (Fig9Point, error) {
		env, err := baselines.NewEnv("cascade1", cfg.Seed+19, minInt(cfg.Queries, 2000))
		if err != nil {
			return Fig9Point{}, err
		}
		sum, _, err := runOnTrace(env, baselines.DiffServe, tr, baselines.Options{Workers: cfg.Workers, SLO: slos[i]})
		if err != nil {
			return Fig9Point{}, err
		}
		return Fig9Point{SLO: slos[i], FID: sum.FID, ViolationRatio: sum.ViolationRatio}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Points: points}, nil
}

// Render writes the Fig 9 table.
func (r *Fig9Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 9 — effect of SLO on performance (cascade 1)")
	fmt.Fprintf(w, "%6s %8s %8s\n", "SLO", "avg FID", "viol")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%5.0fs %8.2f %8.3f\n", p.SLO, p.FID, p.ViolationRatio)
	}
}

// MILPOverheadResult measures the allocator's solve time: the same
// program §4.5 solves with Gurobi in ~10 ms, solved exactly by
// enumeration.
type MILPOverheadResult struct {
	Solves     int
	MeanMillis float64
	P99Millis  float64
}

// MILPOverhead measures the allocator's solve times across a demand sweep.
func MILPOverhead(cfg Config) (*MILPOverheadResult, error) {
	cfg = cfg.withDefaults()
	env, err := baselines.NewEnv("cascade1", cfg.Seed+23, minInt(cfg.Queries, 2000))
	if err != nil {
		return nil, err
	}
	prof := env.Deferral
	a, err := allocator.NewMILP(allocator.Config{
		Light: env.Light, Heavy: env.Heavy,
		DiscPerImage: env.Scorer.PerImageLatency(),
		Deferral:     prof,
		TotalWorkers: cfg.Workers,
		SLO:          env.Spec.SLOSeconds,
	})
	if err != nil {
		return nil, err
	}
	n := 200
	if cfg.Short {
		n = 30
	}
	var times []float64
	rng := stats.NewRNG(cfg.Seed + 29)
	for i := 0; i < n; i++ {
		obs := allocator.Observation{
			Demand:           rng.Uniform(2, 40),
			LightQueueLen:    rng.Intn(20),
			HeavyQueueLen:    rng.Intn(20),
			LightArrivalRate: rng.Uniform(2, 40),
			HeavyArrivalRate: rng.Uniform(1, 20),
		}
		start := time.Now()
		if _, err := a.Allocate(obs); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds()*1000)
	}
	return &MILPOverheadResult{
		Solves:     n,
		MeanMillis: stats.Mean(times),
		P99Millis:  stats.Quantile(times, 0.99),
	}, nil
}

// Render writes the MILP overhead summary.
func (r *MILPOverheadResult) Render(w io.Writer) {
	fmt.Fprintf(w, "MILP solver overhead — %d solves: mean %.3f ms, p99 %.3f ms (paper: ~10 ms)\n",
		r.Solves, r.MeanMillis, r.P99Millis)
}

// SimVsClusterResult validates the discrete-event simulator against
// the HTTP cluster runtime (§4.3 reports 0.56% FID and 1.1% SLO
// violation differences between simulator and testbed).
type SimVsClusterResult struct {
	Sim, Cluster      Summary
	FIDDeltaPct       float64
	ViolationDeltaAbs float64
	// ShardParity compares a sharded-LB cluster run against a
	// single-LB run on the same deterministic trace and seed. Only
	// populated when Config.ClusterLBShards > 1.
	ShardParity *ShardParity
}

// ShardParity reports completed/dropped counts of the single-LB and
// sharded replays of one deterministic trace. Under ample capacity the
// outcome set is timing-insensitive, so the counts must agree exactly:
// the partitioned query stream reaches the same completions and the
// same (zero) drops the single balancer produces.
type ShardParity struct {
	Shards                           int
	Queries                          int
	SingleCompleted, SingleDropped   int
	ShardedCompleted, ShardedDropped int
	// Uneven* is the non-divisible leg: UnevenWorkers workers across
	// UnevenShards shards (7 across 3), a worker count the shard count
	// does not divide. Every worker pulls from every shard, so the
	// counts must still match a single-LB baseline with the same
	// (reduced) worker count.
	UnevenWorkers, UnevenShards                int
	UnevenSingleCompleted, UnevenSingleDropped int
	UnevenCompleted, UnevenDropped             int
}

// Matches reports whether the sharded topologies — static and uneven —
// reproduced their single-LB outcome counts.
func (p *ShardParity) Matches() bool {
	return p.SingleCompleted == p.ShardedCompleted && p.SingleDropped == p.ShardedDropped &&
		p.UnevenSingleCompleted == p.UnevenCompleted && p.UnevenSingleDropped == p.UnevenDropped
}

// SimVsCluster runs the same cascade-1 workload through both runtimes.
func SimVsCluster(cfg Config) (*SimVsClusterResult, error) {
	cfg = cfg.withDefaults()
	// The comparison always uses a full-length trace: compressing the
	// diurnal cycle below ~150s makes demand ramps far steeper than
	// anything the paper ran, and the cluster runtime (unlike the
	// simulator) pays real wall-clock costs during reconfiguration.
	duration := math.Max(cfg.TraceDuration/2, 150)
	raw, err := trace.AzureLike(stats.NewRNG(cfg.Seed+31), duration, 1)
	if err != nil {
		return nil, err
	}
	tr, err := raw.ScaleTo(4, 24)
	if err != nil {
		return nil, err
	}
	env, err := baselines.NewEnv("cascade1", cfg.Seed+31, minInt(cfg.Queries, 2000))
	if err != nil {
		return nil, err
	}
	// Model-load delays are disabled on both sides: wall-clock load
	// simulation at high timescale factors would distort the cluster
	// side only.
	simSum, _, err := runOnTrace(env, baselines.DiffServe, tr, baselines.Options{
		Workers: cfg.Workers, DisableModelLoadDelay: true,
	})
	if err != nil {
		return nil, err
	}

	a, err := allocator.NewMILP(allocator.Config{
		Light: env.Light, Heavy: env.Heavy,
		DiscPerImage: env.Scorer.PerImageLatency(),
		Deferral:     env.Deferral,
		TotalWorkers: cfg.Workers,
		SLO:          env.Spec.SLOSeconds,
	})
	if err != nil {
		return nil, err
	}
	ctrl, err := controller.New(controller.Config{Alloc: a})
	if err != nil {
		return nil, err
	}
	// 0.02 wall-seconds per trace-second (50x real time): fast enough
	// for CI, slow enough that the framed-TCP transport's wire overhead
	// (tens of microseconds per call; the in-process transport has
	// none) stays negligible next to the profiled execution latencies.
	const timescale = 0.02
	res, err := cluster.Run(cluster.HarnessConfig{
		Space: env.Space, Light: env.Light, Heavy: env.Heavy, Scorer: env.Scorer,
		Mode: loadbalancer.ModeCascade, Workers: cfg.Workers, SLO: env.Spec.SLOSeconds,
		Trace: tr, Ctrl: ctrl, Timescale: timescale, Seed: env.Seed + 17,
		DisableLoadDelay: true, Transport: cfg.ClusterTransport,
		LBShards: cfg.ClusterLBShards,
	})
	if err != nil {
		return nil, err
	}
	cs := res.Summary()
	approach := "diffserve (cluster, " + res.Transport + ")"
	if res.LBShards > 1 {
		approach = fmt.Sprintf("diffserve (cluster, %s, %d lb shards)", res.Transport, res.LBShards)
	}
	clusterSum := Summary{
		Approach: approach, Queries: cs.Queries,
		FID: cs.FID, ViolationRatio: cs.ViolationRatio,
		DropRatio: cs.DropRatio, DeferRatio: cs.DeferRatio,
		MeanLatency: cs.MeanLatency, P99Latency: cs.P99Latency,
	}
	simSum.Approach = "diffserve (simulator)"
	out := &SimVsClusterResult{Sim: simSum, Cluster: clusterSum}
	if simSum.FID != 0 {
		out.FIDDeltaPct = 100 * abs(clusterSum.FID-simSum.FID) / simSum.FID
	}
	out.ViolationDeltaAbs = abs(clusterSum.ViolationRatio - simSum.ViolationRatio)
	if cfg.ClusterLBShards > 1 {
		if out.ShardParity, err = shardParityRuns(cfg, env, timescale); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shardParityRuns replays one deterministic lightly loaded static
// trace through the single-LB and the sharded cluster topologies at the
// same seed. With ample capacity the outcome set is timing-insensitive,
// so the completed/dropped counts must agree exactly — the tier's
// validation that ShardOf partitioning (with per-shard "lb/<shard>" RNG
// streams) loses and invents nothing.
func shardParityRuns(cfg Config, env *baselines.Env, timescale float64) (*ShardParity, error) {
	// 4 QPS leaves the workers comfortable capacity headroom in every
	// leg, so no tail query sheds right at the SLO boundary on
	// wall-clock jitter.
	const parityDuration = 40
	tr, err := trace.Static(4, parityDuration, 1)
	if err != nil {
		return nil, err
	}
	const parityWorkers = 9
	// The parity legs run on wall-clock time like any cluster replay,
	// and they are timing-sensitive: on a loaded 1-core CI box a
	// scheduler stall at 50x replay spans several trace seconds and
	// sheds queries that a quiet machine serves. 12.5x keeps the legs
	// deterministic even with residual load while still finishing in
	// a few wall seconds each.
	if timescale < 0.08 {
		timescale = 0.08
	}
	out := &ShardParity{Shards: cfg.ClusterLBShards}
	run := func(workers, shards int) (completed, dropped int, err error) {
		a, err := allocator.NewMILP(allocator.Config{
			Light: env.Light, Heavy: env.Heavy,
			DiscPerImage: env.Scorer.PerImageLatency(),
			Deferral:     env.Deferral,
			TotalWorkers: workers,
			SLO:          env.Spec.SLOSeconds,
		})
		if err != nil {
			return 0, 0, err
		}
		ctrl, err := controller.New(controller.Config{Alloc: a})
		if err != nil {
			return 0, 0, err
		}
		res, err := cluster.Run(cluster.HarnessConfig{
			Space: env.Space, Light: env.Light, Heavy: env.Heavy, Scorer: env.Scorer,
			Mode: loadbalancer.ModeCascade, Workers: workers, SLO: env.Spec.SLOSeconds,
			Trace: tr, Ctrl: ctrl, Timescale: timescale, Seed: env.Seed + 23,
			DisableLoadDelay: true, Transport: cfg.ClusterTransport,
			LBShards: shards,
		})
		if err != nil {
			return 0, 0, err
		}
		out.Queries = res.Queries
		for _, r := range res.Collector.Records() {
			if r.Dropped {
				dropped++
			} else {
				completed++
			}
		}
		return completed, dropped, nil
	}
	if out.SingleCompleted, out.SingleDropped, err = run(parityWorkers, 1); err != nil {
		return nil, err
	}
	if out.ShardedCompleted, out.ShardedDropped, err = run(parityWorkers, cfg.ClusterLBShards); err != nil {
		return nil, err
	}
	// Uneven leg: 7 workers across 3 shards, a count the shard count
	// does not divide. Compared against its own 7-worker single-LB
	// baseline (capacity differs from the 9-worker legs above).
	const unevenWorkers, unevenShards = 7, 3
	out.UnevenWorkers, out.UnevenShards = unevenWorkers, unevenShards
	if out.UnevenSingleCompleted, out.UnevenSingleDropped, err = run(unevenWorkers, 1); err != nil {
		return nil, err
	}
	if out.UnevenCompleted, out.UnevenDropped, err = run(unevenWorkers, unevenShards); err != nil {
		return nil, err
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render writes the comparison.
func (r *SimVsClusterResult) Render(w io.Writer) {
	writeSummaries(w, "Simulator vs. cluster (paper §4.3: 0.56% FID, 1.1% violation gap)",
		[]Summary{r.Sim, r.Cluster})
	fmt.Fprintf(w, "FID delta: %.2f%%   violation delta: %.3f\n", r.FIDDeltaPct, r.ViolationDeltaAbs)
	if p := r.ShardParity; p != nil {
		verdict := "MATCH"
		if !p.Matches() {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "shard parity (%d queries, static trace): single LB %d completed / %d dropped, %d shards %d completed / %d dropped — %s\n",
			p.Queries, p.SingleCompleted, p.SingleDropped, p.Shards, p.ShardedCompleted, p.ShardedDropped, verdict)
		if p.UnevenWorkers > 0 {
			fmt.Fprintf(w, "uneven parity (%d workers / %d shards): single LB %d completed / %d dropped, sharded %d completed / %d dropped\n",
				p.UnevenWorkers, p.UnevenShards, p.UnevenSingleCompleted, p.UnevenSingleDropped,
				p.UnevenCompleted, p.UnevenDropped)
		}
	}
}

// cascadeCurveDeps keeps the cascade import referenced from this file.
var _ = cascade.ProfileDeferral
