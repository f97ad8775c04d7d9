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
// In -workers, blanks around an address and empty entries (a trailing
// comma) are dropped, so every listed worker is a real one when the
// allocator counts them.
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
		lbURL     = flag.String("lb", "localhost:8100", "load balancer address (host:port)")
		workerCSV = flag.String("workers", "", "comma-separated worker control-plane addresses (host:port)")
		cascadeN  = flag.String("cascade", "cascade1", "cascade: cascade1|cascade2|cascade3")
		slo       = flag.Float64("slo", 0, "SLO seconds (0 = cascade default)")
		seed      = flag.Uint64("seed", 20250610, "shared experiment seed")
		timescale = flag.Float64("timescale", 0.1, "wall seconds per trace second")
		interval  = flag.Float64("interval", 2, "control period in trace seconds")
	)
	flag.Parse()

	workerURLs := cluster.SplitAddrs(*workerCSV)
	if len(workerURLs) == 0 {
		fatal(fmt.Errorf("need -workers addresses"))
	}

	env, err := baselines.NewEnv(*cascadeN, *seed, 2000)
	if err != nil {
		fatal(err)
	}
	ac := env.AllocConfig(baselines.Options{Workers: len(workerURLs), SLO: *slo})
	alloc, err := allocator.NewMILP(ac)
	if err != nil {
		fatal(err)
	}
	ctrl, err := controller.New(controller.Config{Alloc: alloc, Interval: *interval})
	if err != nil {
		fatal(err)
	}
	lbConn, err := cluster.DialLB(*lbURL)
	if err != nil {
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
		Mode: loadbalancer.ModeCascade, Clock: cluster.NewClock(*timescale),
		Logf: log.Printf, // stats-poll misses, failover, half-applied plans: stderr
	})
	fmt.Printf("diffserve-controller: %d workers, SLO %.1fs, interval %.1fs\n",
		len(workerURLs), ac.SLO, *interval)
	loop.Run(context.Background())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffserve-controller:", err)
	os.Exit(1)
}
