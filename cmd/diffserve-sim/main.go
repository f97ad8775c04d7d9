// Command diffserve-sim regenerates the DiffServe paper's tables and
// figures from the command line.
//
// Usage:
//
//	diffserve-sim -experiment fig5                # one figure
//	diffserve-sim -experiment all -short          # everything, reduced sizes
//	diffserve-sim -list                           # list experiments
//	diffserve-sim -serve diffserve -cascade cascade1   # one serving run
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"diffserve"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to run (see -list)")
		list       = flag.Bool("list", false, "list available experiments")
		serve      = flag.String("serve", "", "run one serving approach (e.g. diffserve, clipper-light)")
		cascadeN   = flag.String("cascade", "cascade1", "cascade for -serve: cascade1|cascade2|cascade3")
		workers    = flag.Int("workers", 16, "worker (GPU) budget")
		queries    = flag.Int("queries", 5000, "offline evaluation set size")
		duration   = flag.Float64("duration", 360, "dynamic trace duration (seconds)")
		seed       = flag.Uint64("seed", 20250610, "root random seed")
		short      = flag.Bool("short", false, "reduced sizes for quick runs")
		slo        = flag.Float64("slo", 0, "SLO override in seconds (0 = cascade default)")
		minQPS     = flag.Float64("min-qps", 4, "trace minimum rate for -serve")
		maxQPS     = flag.Float64("max-qps", 32, "trace maximum rate for -serve")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:", strings.Join(diffserve.ExperimentNames(), " "))
		return
	}

	switch {
	case *serve != "":
		report, err := diffserve.Serve(diffserve.Config{
			Cascade:              *cascadeN,
			Approach:             diffserve.Approach(*serve),
			Workers:              *workers,
			SLOSeconds:           *slo,
			Seed:                 *seed,
			TraceMinQPS:          *minQPS,
			TraceMaxQPS:          *maxQPS,
			TraceDurationSeconds: *duration,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s on %s: %d queries\n", report.Approach, report.Cascade, report.Queries)
		fmt.Printf("  FID               %.2f\n", report.FID)
		fmt.Printf("  SLO violations    %.3f (drops %.3f)\n", report.SLOViolationRatio, report.DropRatio)
		fmt.Printf("  deferred to heavy %.2f\n", report.DeferRatio)
		fmt.Printf("  latency mean/p99  %.2fs / %.2fs\n", report.MeanLatency, report.P99Latency)
		fmt.Println("\ntimeline (10s buckets):")
		for _, p := range report.Timeline {
			fmt.Printf("  t=%4.0f demand=%5.1f FID=%6.2f viol=%.3f defer=%.2f\n",
				p.StartSeconds, p.DemandQPS, p.FID, p.ViolationRatio, p.DeferRatio)
		}
	case *experiment != "":
		err := diffserve.RunExperiment(*experiment, diffserve.ExperimentConfig{
			Seed:                 *seed,
			Queries:              *queries,
			Workers:              *workers,
			TraceDurationSeconds: *duration,
			Short:                *short,
		}, os.Stdout)
		if err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffserve-sim:", err)
	os.Exit(1)
}
