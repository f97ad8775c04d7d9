// Command diffserve-worker runs one simulated GPU worker process (the
// artifact's start_worker.sh with --do_simulate).
//
// The worker pulls batches from the load balancer, sleeps for the
// profiled execution latency (timescale-adjusted), and reports
// generated images and discriminator confidences. All processes must
// share the same -seed so query content is regenerated consistently.
//
// The worker dials the load balancer over the framed-TCP protocol
// (-lb takes a host:port) and serves its own control plane over framed
// TCP as well.
//
// A worker recovers from a lost LB in one way. The tcp conn redials on
// its next call and replays the submits and completions the LB never
// acknowledged; a failed pull is retried after a short trace-time
// back-off; a completion report that keeps failing is abandoned to the
// LB's lease sweep, which re-queues the queries for another worker.
//
//	diffserve-worker -port 50051 -id 0 -lb localhost:8100 -cascade cascade1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
)

func main() {
	var (
		port      = flag.Int("port", 50051, "listen port (control API)")
		id        = flag.Int("id", 0, "worker ID")
		lbURL     = flag.String("lb", "localhost:8100", "load balancer address (host:port)")
		cascadeN  = flag.String("cascade", "cascade1", "cascade: cascade1|cascade2|cascade3")
		seed      = flag.Uint64("seed", 20250610, "shared experiment seed")
		timescale = flag.Float64("timescale", 0.1, "wall seconds per trace second")
		fastLoad  = flag.Bool("fast-load", false, "skip model-switch load delays")
	)
	flag.Parse()

	env, err := baselines.NewEnv(*cascadeN, *seed, 2000)
	if err != nil {
		fatal(err)
	}
	lbConn, err := cluster.DialLB(*lbURL)
	if err != nil {
		fatal(err)
	}
	ws := cluster.NewWorkerServer(cluster.WorkerConfig{
		ID: *id, LB: lbConn,
		Space: env.Space, Light: env.Light, Heavy: env.Heavy,
		Scorer: env.Scorer, Clock: cluster.NewClock(*timescale),
		DisableLoadDelay: *fastLoad,
	})
	go ws.Loop(context.Background())

	addr := fmt.Sprintf(":%d", *port)
	if _, err := cluster.ServeWorkerTCP(addr, ws); err != nil {
		fatal(err)
	}
	fmt.Printf("diffserve-worker %d: ready on %s (pulling from %s)\n", *id, addr, *lbURL)
	select {} // serve until the process is killed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffserve-worker:", err)
	os.Exit(1)
}
