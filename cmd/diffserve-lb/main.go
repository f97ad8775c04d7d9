// Command diffserve-lb runs the DiffServe load balancer as a
// standalone process (the artifact's start_load_balancer.sh).
//
// Workers pull batches from this process; the controller pushes
// thresholds; clients submit query batches and long-poll for their
// results. The API is served over the framed-TCP protocol (persistent
// multiplexed connections, binary codec); peers dial host:port.
//
//	diffserve-lb -port 8100 -cascade cascade1 -slo 5 -timescale 0.1
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
		port      = flag.Int("port", 8100, "listen port")
		cascadeN  = flag.String("cascade", "cascade1", "cascade: cascade1|cascade2|cascade3")
		slo       = flag.Float64("slo", 0, "SLO seconds (0 = cascade default)")
		seed      = flag.Uint64("seed", 20250610, "shared experiment seed")
		timescale = flag.Float64("timescale", 0.1, "wall seconds per trace second")
		mode      = flag.String("mode", "cascade", "routing: cascade|all-light|all-heavy|random-split")
		lease     = flag.Float64("lease", 0, "pull-lease duration in trace seconds: a worker that pulls a batch and never completes it forfeits the queries to the expiry sweep (0 = 4x the SLO)")
		leaseRed  = flag.Int("lease-redeliveries", 0, "times an unlucky query is reclaimed and re-queued before it is shed as a drop (0 = default 3)")
	)
	flag.Parse()

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
	lb := cluster.NewLBServer(cluster.LBConfig{
		Mode: lbMode, SLO: deadline,
		LightMinExec: discriminator.LightExec(env.Light, env.Scorer, 1),
		HeavyMinExec: env.Heavy.Latency.Latency(1),
		Clock:        cluster.NewClock(*timescale), Seed: *seed,
		LeaseDuration: *lease, LeaseRedeliveries: *leaseRed,
	})
	addr := fmt.Sprintf(":%d", *port)
	if _, err := cluster.ServeLBTCP(addr, lb); err != nil {
		fatal(err)
	}
	fmt.Printf("diffserve-lb: %s on %s (cascade %s, SLO %.1fs, mode %s)\n",
		env.Spec.Name, addr, *cascadeN, deadline, *mode)
	select {} // serve until the process is killed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffserve-lb:", err)
	os.Exit(1)
}
