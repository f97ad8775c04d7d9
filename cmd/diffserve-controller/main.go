// Command diffserve-controller runs the DiffServe control plane as a
// standalone process (the artifact's start_controller.sh): it polls
// the load balancer's runtime statistics, re-solves the MILP resource
// allocation every control interval, and pushes plans to the load
// balancer and workers.
//
//	diffserve-controller -lb localhost:8100 \
//	    -workers localhost:50051,localhost:50052 \
//	    -cascade cascade1 -timescale 0.1
//
// The controller dials the load balancer and the workers over the
// framed-TCP protocol; -lb and -workers take host:port addresses.
//
// Against a sharded LB tier, pass the full shard list via
// -shard-addrs (same order on every process): the controller
// broadcasts policy to every shard, merges their stats, and stripes
// worker roles so each shard keeps both pools served (worker i is
// assumed pinned to shard i mod shards, matching diffserve-worker's
// -shard-addrs behavior). The shard list is fixed for the life of the
// processes.
//
// -workers is parsed like -shard-addrs: blanks around an address and
// empty entries (a trailing comma) are dropped, so every listed worker
// is a real one when the allocator counts them.
//
// The control loop logs to stderr: each failed stats poll, the
// failover to the conservative plan and its recovery, and every plan
// left half-applied by a failed configure RPC.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"diffserve/internal/allocator"
	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/controller"
	"diffserve/internal/loadbalancer"
)

func main() {
	var (
		lbURL      = flag.String("lb", "localhost:8100", "load balancer address (host:port)")
		shardAddrs = flag.String("shard-addrs", "", "comma-separated LB shard addresses; overrides -lb and enables shard-striped role assignment")
		workerCSV  = flag.String("workers", "", "comma-separated worker control-plane addresses (host:port)")
		cascadeN   = flag.String("cascade", "cascade1", "cascade: cascade1|cascade2|cascade3")
		slo        = flag.Float64("slo", 0, "SLO seconds (0 = cascade default)")
		seed       = flag.Uint64("seed", 20250610, "shared experiment seed")
		timescale  = flag.Float64("timescale", 0.1, "wall seconds per trace second")
		interval   = flag.Float64("interval", 2, "control period in trace seconds")
	)
	flag.Parse()

	workerURLs := cluster.SplitShardAddrs(*workerCSV)
	if len(workerURLs) == 0 {
		fatal(fmt.Errorf("need -workers addresses"))
	}

	env, err := baselines.NewEnv(*cascadeN, *seed, 2000)
	if err != nil {
		fatal(err)
	}
	deadline := env.Spec.SLOSeconds
	if *slo > 0 {
		deadline = *slo
	}
	alloc, err := allocator.NewMILP(allocator.Config{
		Light: env.Light, Heavy: env.Heavy,
		DiscPerImage: env.Scorer.PerImageLatency(),
		Deferral:     env.Deferral,
		TotalWorkers: len(workerURLs),
		SLO:          deadline,
	})
	if err != nil {
		fatal(err)
	}
	ctrl, err := controller.New(controller.Config{Alloc: alloc, Interval: *interval})
	if err != nil {
		fatal(err)
	}
	clock := cluster.NewClock(*timescale)
	var lbConn cluster.LBConn
	shards := 1
	if *shardAddrs != "" {
		frontend, err := cluster.DialShardedLB(*shardAddrs, clock)
		if err != nil {
			fatal(err)
		}
		lbConn, shards = frontend, frontend.Shards()
	} else if lbConn, err = cluster.DialLB(*lbURL); err != nil {
		fatal(err)
	}
	workerConns := make([]cluster.WorkerConn, len(workerURLs))
	for i, u := range workerURLs {
		if workerConns[i], err = cluster.DialWorker(u); err != nil {
			fatal(err)
		}
	}
	loop := cluster.NewControllerLoop(cluster.ControllerConfig{
		Ctrl: ctrl, LB: lbConn, Workers: workerConns,
		Mode: loadbalancer.ModeCascade, Clock: clock, Shards: shards,
		Logf: log.Printf, // stats-poll misses, failover, half-applied plans: stderr
	})
	fmt.Printf("diffserve-controller: %d workers, %d LB shard(s), SLO %.1fs, interval %.1fs\n",
		len(workerURLs), shards, deadline, *interval)
	loop.Run(context.Background())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffserve-controller:", err)
	os.Exit(1)
}
