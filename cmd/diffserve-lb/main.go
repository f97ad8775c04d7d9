// Command diffserve-lb runs the DiffServe load balancer as a
// standalone process (the artifact's start_load_balancer.sh).
//
// Workers pull batches from this process; the controller pushes
// thresholds; clients submit query batches and long-poll for their
// results. The API is served over the framed-TCP protocol (persistent
// multiplexed connections, binary codec); peers dial host:port.
//
// With -lb-shards N the process serves N independent LB shards on
// consecutive ports (port, port+1, …, port+N-1), each owning the
// slice of query IDs that loadbalancer.ShardOf assigns it and drawing
// routing randomness from its own "lb/<shard>" stream of the shared
// seed. Peers pass the same shard list via their -shard-addrs flags:
// workers pin to one shard, the controller and client fan out across
// all of them. Run one shard per host for multi-host layouts. Shard i
// listens on port+i and nowhere else, because that is where every
// peer's -shard-addrs points: if the port is taken the process exits
// with an error naming the shard.
//
//	diffserve-lb -port 8100 -cascade cascade1 -slo 5 -timescale 0.1
//	diffserve-lb -port 8100 -lb-shards 2
package main

import (
	"flag"
	"fmt"
	"os"

	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/discriminator"
	"diffserve/internal/loadbalancer"
)

func main() {
	var (
		port      = flag.Int("port", 8100, "listen port (shard i listens on port+i)")
		shards    = flag.Int("lb-shards", 1, "number of LB shards to serve on consecutive ports")
		cascadeN  = flag.String("cascade", "cascade1", "cascade: cascade1|cascade2|cascade3")
		slo       = flag.Float64("slo", 0, "SLO seconds (0 = cascade default)")
		seed      = flag.Uint64("seed", 20250610, "shared experiment seed")
		timescale = flag.Float64("timescale", 0.1, "wall seconds per trace second")
		mode      = flag.String("mode", "cascade", "routing: cascade|all-light|all-heavy|random-split")
		lease     = flag.Float64("lease", 0, "pull-lease duration in trace seconds: a worker that pulls a batch and never completes it forfeits the queries to the expiry sweep (0 = 4x the SLO)")
		leaseRed  = flag.Int("lease-redeliveries", 0, "times an unlucky query is reclaimed and re-queued before it is shed as a drop (0 = default 3)")
	)
	flag.Parse()

	if *shards < 1 {
		fatal(fmt.Errorf("-lb-shards must be at least 1, got %d", *shards))
	}
	lbMode, ok := map[string]loadbalancer.Mode{
		"cascade":      loadbalancer.ModeCascade,
		"all-light":    loadbalancer.ModeAllLight,
		"all-heavy":    loadbalancer.ModeAllHeavy,
		"random-split": loadbalancer.ModeRandomSplit,
	}[*mode]
	if !ok {
		fatal(fmt.Errorf("unknown -mode %q: want cascade, all-light, all-heavy or random-split", *mode))
	}
	env, err := baselines.NewEnv(*cascadeN, *seed, 2000)
	if err != nil {
		fatal(err)
	}
	deadline := env.Spec.SLOSeconds
	if *slo > 0 {
		deadline = *slo
	}
	clock := cluster.NewClock(*timescale)
	fmt.Printf("diffserve-lb: %s, %d shard(s) from port %d (cascade %s, SLO %.1fs, mode %s)\n",
		env.Spec.Name, *shards, *port, *cascadeN, deadline, *mode)

	for i := 0; i < *shards; i++ {
		cfg := cluster.LBConfig{
			Mode: lbMode, SLO: deadline,
			LightMinExec: discriminator.LightExec(env.Light, env.Scorer, 1),
			HeavyMinExec: env.Heavy.Latency.Latency(1),
			Clock:        clock, Seed: *seed,
			RNGStream:     fmt.Sprintf("lb/%d", i),
			LeaseDuration: *lease, LeaseRedeliveries: *leaseRed,
		}
		if *shards == 1 {
			cfg.RNGStream = "" // classic single-LB stream name
		}
		addr := fmt.Sprintf(":%d", *port+i)
		if _, err := cluster.ServeLBTCP(addr, cluster.NewLBServer(cfg)); err != nil {
			fatal(fmt.Errorf("shard %d on %s: %w", i, addr, err))
		}
		fmt.Printf("diffserve-lb: shard %d on %s\n", i, addr)
	}
	select {} // serve until the process is killed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffserve-lb:", err)
	os.Exit(1)
}
