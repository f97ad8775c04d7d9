// Package experiments regenerates every table and figure of the
// DiffServe paper's evaluation (§2 and §4). Each experiment returns a
// typed result plus a text rendering, and is exposed through both the
// cmd/diffserve-sim CLI and the benchmark harness at the repository
// root.
//
// Experiment index (`diffserve-sim -list` prints the runnable names):
//
//	Fig1a  — FID vs. latency for cascade scorers + independent variants
//	Fig1b  — CDFs of per-query quality differences (easy queries)
//	Fig1c  — FID vs. throughput Pareto frontier over configurations
//	Table1 — approach comparison matrix
//	Fig4   — FID vs. SLO violations on static traces (3 load levels)
//	Fig5   — timeline on the Azure-shaped dynamic trace
//	Fig6   — average FID / violations for cascades 2 and 3
//	Fig7   — discriminator design ablation
//	Fig8   — resource-allocation ablation timeline
//	Fig9   — SLO sensitivity sweep
//	MILPOverhead — allocator solve-time measurement (§4.5)
//	SimVsCluster — simulator vs. cluster-runtime (tcp) agreement (§4.3)
//
// Two more go beyond the paper's evaluation. They are extensions, not
// reproductions of a reported table or figure:
//
//	ReuseStudy      — §5 "Reuse Opportunities": FID when the heavy model
//	                  builds on the light model's output (`reuse`)
//	MultiLevelStudy — §5's longer-pipeline extension: a three-stage
//	                  cascade SDXS -> SD-Turbo -> SDv1.5 (`multilevel`)
//
// An experiment's independent simulation runs (approaches, loads,
// sweep points, cascade curves) fan out through parallel.Map, one
// worker per GOMAXPROCS. Each run owns its seeded RNG streams, so
// every table is bit-identical at any GOMAXPROCS.
package experiments

import (
	"fmt"
	"io"
	"math"

	"diffserve/internal/baselines"
	"diffserve/internal/fid"
	"diffserve/internal/imagespace"
	"diffserve/internal/metrics"
	"diffserve/internal/parallel"
	"diffserve/internal/stats"
	"diffserve/internal/system"
	"diffserve/internal/trace"
)

// Config sizes the experiments.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Queries is the offline evaluation set size (default 5000, the
	// paper's dataset size).
	Queries int
	// Workers is the cluster size (default 16, the paper's testbed).
	Workers int
	// TraceDuration is the dynamic-trace length in seconds (default
	// 360, the paper's runs).
	TraceDuration float64
	// Short shrinks everything for quick runs and tests.
	Short bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 20250610
	}
	if c.Queries <= 0 {
		c.Queries = 5000
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.TraceDuration <= 0 {
		c.TraceDuration = 360
	}
	if c.Short {
		if c.Queries > 1500 {
			c.Queries = 1500
		}
		if c.TraceDuration > 120 {
			c.TraceDuration = 120
		}
	}
	return c
}

// offlineSet builds the shared offline evaluation fixture: a query
// set and its ground-truth FID reference.
func offlineSet(space *imagespace.Space, n int) ([]*imagespace.Query, *fid.Reference, error) {
	queries := space.SampleQueries(0, n)
	real := make([][]float64, n)
	for i, q := range queries {
		real[i] = space.RealImage(q)
	}
	ref, err := fid.NewReference(real)
	if err != nil {
		return nil, nil, err
	}
	return queries, ref, nil
}

// azureTrace generates the paper's dynamic workload: an Azure-shaped
// diurnal trace scaled to 4–32 QPS (the artifact's trace_4to32qps).
func azureTrace(cfg Config, minQPS, maxQPS float64) (*trace.Trace, error) {
	raw, err := trace.AzureLike(stats.NewRNG(cfg.Seed+1), cfg.TraceDuration, 1)
	if err != nil {
		return nil, err
	}
	return raw.ScaleTo(minQPS, maxQPS)
}

// runOnTrace builds and runs one approach on the simulator, returning
// its summary and the run's result, which Fig 5 reads its timeline
// from.
func runOnTrace(env *baselines.Env, app baselines.Approach, tr *trace.Trace, opt baselines.Options) (Summary, *system.Result, error) {
	sys, err := env.NewSystem(app, tr, opt)
	if err != nil {
		return Summary{}, nil, err
	}
	res, err := sys.Run()
	if err != nil {
		return Summary{}, nil, err
	}
	return Summary{Approach: string(app), Summary: res.Summary()}, res, nil
}

// runApproaches runs each approach on the trace in parallel and returns
// their summaries in order.
func runApproaches(env *baselines.Env, apps []baselines.Approach, tr *trace.Trace, opt baselines.Options) ([]Summary, error) {
	return parallel.Map(len(apps), func(i int) (Summary, error) {
		sum, _, err := runOnTrace(env, apps[i], tr, opt)
		return sum, err
	})
}

// Summary is one approach's end-to-end outcome.
type Summary struct {
	Approach string
	metrics.Summary
}

// writeSummaries renders a summary table.
func writeSummaries(w io.Writer, title string, sums []Summary) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-28s %8s %8s %8s %8s %9s %9s\n",
		"approach", "FID", "viol", "drop", "defer", "meanLat", "p99Lat")
	for _, s := range sums {
		fmt.Fprintf(w, "%-28s %8.2f %8.3f %8.3f %8.2f %8.2fs %8.2fs\n",
			s.Approach, s.FID, s.ViolationRatio, s.DropRatio, s.DeferRatio, s.MeanLatency, s.P99Latency)
	}
}

func fmtNaN(v float64) string {
	if math.IsNaN(v) {
		return "     -"
	}
	return fmt.Sprintf("%6.2f", v)
}
