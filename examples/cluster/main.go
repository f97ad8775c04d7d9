// Cluster example: run the full DiffServe system as real networked
// components — a sharded load-balancer tier (two LB shards
// partitioning the query stream by query ID), eight workers pulling
// from every shard through the tier's frontend, and the MILP
// controller — wired over loopback sockets, then replay a trace
// through the network data path at 10x speed, growing the tier to
// three shards mid-trace: the reshard installs a new ring epoch that
// routes new submits over three shards, and the workers' next pulls
// sweep the new shard too.
// The example uses the framed-TCP transport (persistent multiplexed
// connections, binary codec), the wire the standalone binaries speak;
// set the Transport field to cluster.TransportInproc for the
// zero-serialization in-process alternative, or LBShards to 1 (and
// drop Reshard) for the classic single-balancer topology.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"diffserve/internal/allocator"
	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/controller"
	"diffserve/internal/loadbalancer"
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

	alloc, err := allocator.NewMILP(allocator.Config{
		Light: env.Light, Heavy: env.Heavy,
		DiscPerImage: env.Scorer.PerImageLatency(),
		Deferral:     env.Deferral,
		TotalWorkers: workers,
		SLO:          env.Spec.SLOSeconds,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := controller.New(controller.Config{Alloc: alloc})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replaying %s through 2 LB shards (growing to 3 at t=60s) + %d workers + controller over framed TCP (10x speed)...\n",
		tr.Name(), workers)
	res, err := cluster.Run(cluster.HarnessConfig{
		Space: env.Space, Light: env.Light, Heavy: env.Heavy, Scorer: env.Scorer,
		Mode: loadbalancer.ModeCascade, Workers: workers, SLO: env.Spec.SLOSeconds,
		Trace: tr, Ctrl: ctrl, Timescale: 0.1, Seed: 99,
		DisableLoadDelay: true,
		// The alternative is cluster.TransportInproc (zero-serialization
		// direct dispatch for maximum replay speed).
		Transport: cluster.TransportTCP,
		// Sharded LB tier: queries are partitioned across independent
		// balancer shards by loadbalancer.ShardOf; each worker pulls
		// from every shard and the client merges every shard's result
		// stream.
		LBShards: 2,
		// Mid-trace resharding: at t=60s a third shard joins. The ring
		// epoch flips atomically for submit batches, new submits spread
		// over three shards while queued queries stay where they are,
		// and the workers and role plan follow within a pull round trip.
		Reshard: []cluster.ReshardEvent{{At: 60, Action: "add", Member: 2}},
	})
	if err != nil {
		log.Fatal(err)
	}

	sum := res.Summary()
	fmt.Printf("\ncompleted in %.1fs wall time (%s transport, %d LB shards)\n", res.WallSeconds, res.Transport, res.LBShards)
	fmt.Printf("queries          %d\n", sum.Queries)
	fmt.Printf("FID              %.2f\n", sum.FID)
	fmt.Printf("SLO violations   %.3f (drops %.3f)\n", sum.ViolationRatio, sum.DropRatio)
	fmt.Printf("deferred         %.2f\n", sum.DeferRatio)
	fmt.Printf("latency mean/p99 %.2fs / %.2fs\n", sum.MeanLatency, sum.P99Latency)
	fmt.Printf("plans applied    %d\n", len(res.Plans))
}
