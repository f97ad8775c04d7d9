// Cluster example: run the full DiffServe system as real networked
// components — one load balancer, eight workers pulling from it, and
// the MILP controller — wired over loopback sockets, then replay a
// trace through the network data path at 10x speed.
// The example uses the framed-TCP transport (persistent multiplexed
// connections, binary codec), the wire the standalone binaries speak;
// set the harness's Transport field to cluster.TransportInproc for the
// zero-serialization in-process alternative. baselines.Env builds the
// run's components, routing mode and controller, as it does for the
// simulator.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

func main() {
	const workers = 8

	env, err := baselines.NewEnv("cascade1", 42, 1500)
	if err != nil {
		log.Fatal(err)
	}
	raw, err := trace.AzureLike(stats.NewRNG(7), 120, 1)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := raw.ScaleTo(4, 16)
	if err != nil {
		log.Fatal(err)
	}

	hc, err := env.Harness(baselines.DiffServe, tr, baselines.Options{
		Workers: workers, Seed: 99, DisableModelLoadDelay: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	hc.Timescale, hc.Transport = 0.1, cluster.TransportTCP

	fmt.Printf("replaying %s through an LB + %d workers + controller over framed TCP (10x speed)...\n",
		tr.Name(), workers)
	res, err := cluster.Run(hc)
	if err != nil {
		log.Fatal(err)
	}

	sum := res.Summary()
	fmt.Printf("\ncompleted in %.1fs wall time (%s transport)\n", res.WallSeconds, res.Transport)
	fmt.Printf("queries          %d\n", sum.Queries)
	fmt.Printf("FID              %.2f\n", sum.FID)
	fmt.Printf("SLO violations   %.3f (drops %.3f)\n", sum.ViolationRatio, sum.DropRatio)
	fmt.Printf("deferred         %.2f\n", sum.DeferRatio)
	fmt.Printf("latency mean/p99 %.2fs / %.2fs\n", sum.MeanLatency, sum.P99Latency)
	fmt.Printf("plans applied    %d\n", len(res.Plans))
}
