package diffserve

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`). Each
// benchmark executes the corresponding experiment end to end at
// reduced ("Short") sizes so the whole suite completes in minutes;
// run cmd/diffserve-sim with full sizes (`-experiment <name>`, names
// from `-list`) for the full-size numbers.

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"diffserve/internal/allocator"
	"diffserve/internal/baselines"
	"diffserve/internal/cascade"
	"diffserve/internal/discriminator"
	"diffserve/internal/experiments"
	"diffserve/internal/fid"
	"diffserve/internal/imagespace"
	"diffserve/internal/model"
	"diffserve/internal/stats"
)

func benchCfg() experiments.Config {
	return experiments.Config{Seed: 20250610, Short: true}
}

func runRenderable(b *testing.B, run func(experiments.Config) (interface{ Render(io.Writer) }, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkFig1a regenerates Figure 1a (scorer quality-latency curves).
func BenchmarkFig1a(b *testing.B) {
	runRenderable(b, func(c experiments.Config) (interface{ Render(io.Writer) }, error) {
		return experiments.Fig1a(c)
	})
}

// BenchmarkFig1b regenerates Figure 1b (quality-difference CDFs).
func BenchmarkFig1b(b *testing.B) {
	runRenderable(b, func(c experiments.Config) (interface{ Render(io.Writer) }, error) {
		return experiments.Fig1b(c)
	})
}

// BenchmarkFig1c regenerates Figure 1c (configuration Pareto frontier).
func BenchmarkFig1c(b *testing.B) {
	runRenderable(b, func(c experiments.Config) (interface{ Render(io.Writer) }, error) {
		return experiments.Fig1c(c)
	})
}

// BenchmarkFig4 regenerates Figure 4 (static traces, three loads).
func BenchmarkFig4(b *testing.B) {
	runRenderable(b, func(c experiments.Config) (interface{ Render(io.Writer) }, error) {
		return experiments.Fig4(c)
	})
}

// BenchmarkFig5 regenerates Figure 5 (dynamic-trace timeline).
func BenchmarkFig5(b *testing.B) {
	runRenderable(b, func(c experiments.Config) (interface{ Render(io.Writer) }, error) {
		return experiments.Fig5(c)
	})
}

// BenchmarkFig6 regenerates Figure 6 (cascades 2 and 3).
func BenchmarkFig6(b *testing.B) {
	runRenderable(b, func(c experiments.Config) (interface{ Render(io.Writer) }, error) {
		return experiments.Fig6(c)
	})
}

// BenchmarkFig7 regenerates Figure 7 (discriminator ablation).
func BenchmarkFig7(b *testing.B) {
	runRenderable(b, func(c experiments.Config) (interface{ Render(io.Writer) }, error) {
		return experiments.Fig7(c)
	})
}

// BenchmarkFig8 regenerates Figure 8 (allocator ablation).
func BenchmarkFig8(b *testing.B) {
	runRenderable(b, func(c experiments.Config) (interface{ Render(io.Writer) }, error) {
		return experiments.Fig8(c)
	})
}

// BenchmarkFig9 regenerates Figure 9 (SLO sensitivity).
func BenchmarkFig9(b *testing.B) {
	runRenderable(b, func(c experiments.Config) (interface{ Render(io.Writer) }, error) {
		return experiments.Fig9(c)
	})
}

// BenchmarkMILPSolve measures one resource-allocation solve: the
// closed-form threshold search, then the exact enumeration at the
// threshold it picks (§4.5 reports ~10 ms under Gurobi).
func BenchmarkMILPSolve(b *testing.B) {
	env, err := baselines.NewEnv("cascade1", 1, 2000)
	if err != nil {
		b.Fatal(err)
	}
	a, err := allocator.NewMILP(allocator.Config{
		Light: env.Light, Heavy: env.Heavy,
		DiscPerImage: env.Scorer.PerImageLatency(),
		Deferral:     env.Deferral,
		TotalWorkers: 16,
		SLO:          5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Allocate(allocator.Observation{Demand: float64(4 + i%28)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlTickSolve measures the allocation slice of a full
// control tick at 1× and 10× the current pool count: K independent
// controllers (one per model pool, the forthcoming N-pool layout)
// each re-solve their allocation against a drifting demand walk. The
// reported ns/op is one tick across all K pools, so ticks/sec =
// 1e9/ns — the solve-rate headroom number PERFORMANCE.md tracks.
func BenchmarkControlTickSolve(b *testing.B) {
	env, err := baselines.NewEnv("cascade1", 1, 2000)
	if err != nil {
		b.Fatal(err)
	}
	for _, pools := range []int{1, 10} {
		b.Run(fmt.Sprintf("pools=%d", pools), func(b *testing.B) {
			allocs := make([]*allocator.MILPAllocator, pools)
			for k := range allocs {
				a, err := allocator.NewMILP(allocator.Config{
					Light: env.Light, Heavy: env.Heavy,
					DiscPerImage: env.Scorer.PerImageLatency(),
					Deferral:     env.Deferral,
					TotalWorkers: 16,
					SLO:          5,
				})
				if err != nil {
					b.Fatal(err)
				}
				allocs[k] = a
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, a := range allocs {
					d := float64(4 + (i+7*k)%28)
					if _, err := a.Allocate(allocator.Observation{Demand: d}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFIDExactVsDiagonal_Exact measures the exact full-covariance
// FID over a 5000-image set (see also the micro-benchmarks in
// internal/fid).
func BenchmarkFIDExactVsDiagonal_Exact(b *testing.B) {
	ref, feats := fidFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Score(feats); err != nil {
			b.Fatal(err)
		}
	}
}

func fidFixture(b *testing.B) (*fid.Reference, [][]float64) {
	b.Helper()
	rng := stats.NewRNG(3)
	space := imagespace.NewSpace(rng.Stream("space"))
	v := model.BuiltinRegistry().MustGet("sdturbo")
	queries := space.SampleQueries(0, 5000)
	feats := make([][]float64, len(queries))
	real := make([][]float64, len(queries))
	for i, q := range queries {
		feats[i] = space.GenerateDeterministic(q, v.Name, v.Gen).Features
		real[i] = space.RealImage(q)
	}
	ref, err := fid.NewReference(real)
	if err != nil {
		b.Fatal(err)
	}
	return ref, feats
}

// BenchmarkMomentsStreaming measures the streaming-moments path the
// metrics pipeline now uses for FID: accumulate a 5000-image feature
// set and finalize the covariance.
func BenchmarkMomentsStreaming(b *testing.B) {
	_, feats := fidFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := stats.NewMomentAccumulator(len(feats[0]))
		for _, f := range feats {
			acc.Add(f)
		}
		if _, err := acc.CovarianceInto(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMomentsBatch is the pre-streaming batch moment computation
// on the same data, kept for comparison.
func BenchmarkMomentsBatch(b *testing.B) {
	_, feats := fidFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := imagespace.Moments(feats); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateCached measures memoized deterministic generation:
// steady-state replay of a query population through one variant, as
// every threshold/approach sweep does after its first pass.
func BenchmarkGenerateCached(b *testing.B) {
	rng := stats.NewRNG(3)
	space := imagespace.NewSpace(rng.Stream("space"))
	v := model.BuiltinRegistry().MustGet("sdturbo")
	queries := space.SampleQueries(0, 1024)
	for _, q := range queries {
		space.GenerateDeterministic(q, v.Name, v.Gen)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := space.GenerateDeterministic(queries[i%len(queries)], v.Name, v.Gen)
		if img.Features == nil {
			b.Fatal("missing features")
		}
	}
}

// BenchmarkGenerateMiss measures deterministic generation on queries
// nothing has generated yet, as every simulated window's first pass
// does: GenerateCached above measures only memo hits. Queries are
// sampled outside the timer in blocks.
func BenchmarkGenerateMiss(b *testing.B) {
	const block = 4096
	v := model.BuiltinRegistry().MustGet("sdturbo")
	space := imagespace.NewSpace(stats.NewRNG(3).Stream("space"))
	var queries []*imagespace.Query
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%block == 0 {
			b.StopTimer()
			queries = space.SampleQueries(i, block)
			b.StartTimer()
		}
		if img := space.GenerateDeterministic(queries[i%block], v.Name, v.Gen); img.Features == nil {
			b.Fatal("missing features")
		}
	}
}

// confidenceSink keeps BenchmarkConfidenceMiss's scores live.
var confidenceSink float64

// BenchmarkConfidenceMiss measures one discriminator score on a query
// ID the scorer has not scored before, as each cascade arrival of a
// simulated window is: the observation stream's re-seed and one draw.
func BenchmarkConfidenceMiss(b *testing.B) {
	d, err := discriminator.New(discriminator.Config{
		Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
	}, stats.NewRNG(3).Stream("disc"))
	if err != nil {
		b.Fatal(err)
	}
	q := &imagespace.Query{}
	img := imagespace.Image{Features: make([]float64, imagespace.FeatureDim), Artifact: 3, Variant: "sdturbo"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ID = i
		confidenceSink += d.Confidence(q, img)
	}
}

// benchFig8At runs the Fig 8 ablation suite at GOMAXPROCS procs, the
// experiment pool's width (the serial-vs-parallel harness comparison).
func benchFig8At(b *testing.B, procs int) {
	b.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// BenchmarkExperimentsSerial runs Fig 8's four independent simulation
// runs on one worker.
func BenchmarkExperimentsSerial(b *testing.B) { benchFig8At(b, 1) }

// BenchmarkExperimentsParallel runs the same four simulation runs at
// the GOMAXPROCS the benchmark was started with.
func BenchmarkExperimentsParallel(b *testing.B) { benchFig8At(b, runtime.GOMAXPROCS(0)) }

// BenchmarkCascadeProcess measures one query through the cascade's
// offline data path (generate light image, score, maybe defer).
func BenchmarkCascadeProcess(b *testing.B) {
	rng := stats.NewRNG(4)
	space := imagespace.NewSpace(rng.Stream("space"))
	reg := model.BuiltinRegistry()
	d, err := discriminator.New(discriminator.Config{
		Arch: discriminator.ArchEfficientNet, Train: discriminator.TrainGT,
	}, rng.Stream("d"))
	if err != nil {
		b.Fatal(err)
	}
	c, err := cascade.New(space, reg.MustGet("sdturbo"), reg.MustGet("sdv15"), d)
	if err != nil {
		b.Fatal(err)
	}
	queries := space.SampleQueries(0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Process(queries[i%len(queries)], 0.5)
	}
}

// BenchmarkServeDiffServe measures a full simulated serving run of
// DiffServe on a short dynamic trace.
func BenchmarkServeDiffServe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Serve(Config{
			Cascade: "cascade1", Approach: DiffServe,
			Workers: 16, TraceMinQPS: 4, TraceMaxQPS: 24,
			TraceDurationSeconds: 60, Seed: 5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
