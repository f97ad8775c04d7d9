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
// Against a sharded LB tier, pass the full shard list via
// -shard-addrs (same order on every process): the worker pins itself
// to shard (id mod len(addrs)) and pulls, completes, and defers only
// within that shard — the multi-host layout runs one shard plus its
// worker group per host with no cross-host data traffic.
//
// When the tier reshards (a ring epoch flip driven by the
// controller's admin RPC), every pull response carries the new ring
// epoch; a standalone worker logs the flip but keeps its static pin —
// re-pinning standalone workers onto new shard addresses is the
// operator's move (restart with the new -shard-addrs). The in-process
// harness pins no worker: its workers pull through the ShardedLB
// frontend, which follows the flip itself.
//
// Data-path calls to the LB retry transient failures with jittered
// exponential backoff (-retry-attempts, -retry-base-ms), and a conn
// whose pulls keep failing is redialed in place (-redial-after); a
// completion report that exhausts -complete-retries abandons its
// batch to the LB's lease sweep, which re-queues the queries for
// another worker.
//
//	diffserve-worker -port 50051 -id 0 -lb localhost:8100 -cascade cascade1
//	diffserve-worker -port 50051 -id 3 -shard-addrs localhost:8100,localhost:8101
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
)

func main() {
	var (
		port       = flag.Int("port", 50051, "listen port (control API)")
		id         = flag.Int("id", 0, "worker ID")
		lbURL      = flag.String("lb", "localhost:8100", "load balancer address (host:port)")
		shardAddrs = flag.String("shard-addrs", "", "comma-separated LB shard addresses; the worker pins to shard (id mod count), overriding -lb")
		cascadeN   = flag.String("cascade", "cascade1", "cascade: cascade1|cascade2|cascade3")
		seed       = flag.Uint64("seed", 20250610, "shared experiment seed")
		timescale  = flag.Float64("timescale", 0.1, "wall seconds per trace second")
		fastLoad   = flag.Bool("fast-load", false, "skip model-switch load delays")

		retryAttempts = flag.Int("retry-attempts", 0, "tries per LB data-path call before the transient failure surfaces (0 = default 4, 1 disables retries)")
		retryBaseMs   = flag.Float64("retry-base-ms", 0, "first retry backoff in milliseconds, doubling with jitter up to a 50x cap (0 = default 5ms)")
		redialAfter   = flag.Int("redial-after", 0, "consecutive pull failures before the worker drops its LB conn and redials (0 = default 3, negative disables)")
		completeRetry = flag.Int("complete-retries", 0, "tries a completion report gets before its batch is abandoned to the lease sweep (0 = default 4)")
	)
	flag.Parse()

	env, err := baselines.NewEnv(*cascadeN, *seed, 2000)
	if err != nil {
		fatal(err)
	}
	lbAddr := *lbURL
	if *shardAddrs != "" {
		addrs := cluster.SplitShardAddrs(*shardAddrs)
		if len(addrs) == 0 {
			fatal(fmt.Errorf("no shard addresses in -shard-addrs %q", *shardAddrs))
		}
		shard := *id % len(addrs)
		lbAddr = addrs[shard]
		fmt.Printf("diffserve-worker %d: pinned to LB shard %d of %d (%s)\n", *id, shard, len(addrs), lbAddr)
	}
	// Every data-path call retries transient failures with jittered
	// exponential backoff; the jitter stream is seeded per worker so a
	// fleet sharing a seed does not retry in lockstep.
	pol := cluster.RetryPolicy{
		Attempts: *retryAttempts,
		Base:     time.Duration(*retryBaseMs * float64(time.Millisecond)),
		Seed:     *seed ^ uint64(*id)<<32,
	}
	dialLB := func() (cluster.LBConn, error) {
		conn, err := cluster.DialLB(lbAddr)
		if err != nil {
			return nil, err
		}
		return cluster.NewRetryingLBConn(conn, pol), nil
	}
	lbConn, err := dialLB()
	if err != nil {
		fatal(err)
	}
	clock := cluster.NewClock(*timescale)
	wcfg := cluster.WorkerConfig{
		ID: *id, LB: lbConn,
		Space: env.Space, Light: env.Light, Heavy: env.Heavy,
		Scorer: env.Scorer, Clock: clock,
		DisableLoadDelay: *fastLoad,
		CompleteRetries:  *completeRetry,
		// A standalone worker cannot dial shards it was never told
		// about, so an epoch flip is surfaced to the operator and the
		// static pin kept (nil return).
		RePin: func(epoch int) cluster.LBConn {
			fmt.Printf("diffserve-worker %d: LB tier resharded to ring epoch %d; keeping static pin %s (restart with the new -shard-addrs to re-pin)\n", *id, epoch, lbAddr)
			return nil
		},
	}
	if *redialAfter >= 0 {
		wcfg.RedialAfter = *redialAfter
		// A conn whose pulls keep failing past the threshold is dropped
		// for a fresh dial of the same shard address; keeping the old
		// conn (nil return) is the fallback when the redial itself fails.
		wcfg.Redial = func(epoch int) cluster.LBConn {
			conn, err := dialLB()
			if err != nil {
				fmt.Printf("diffserve-worker %d: redial of %s failed: %v (keeping the dead conn for the next round)\n", *id, lbAddr, err)
				return nil
			}
			fmt.Printf("diffserve-worker %d: redialed %s after repeated pull failures\n", *id, lbAddr)
			return conn
		}
	}
	ws := cluster.NewWorkerServer(wcfg)
	go ws.Loop(context.Background())

	addr := fmt.Sprintf(":%d", *port)
	if _, err := cluster.ServeWorkerTCP(addr, ws); err != nil {
		fatal(err)
	}
	fmt.Printf("diffserve-worker %d: ready on %s (pulling from %s)\n", *id, addr, lbAddr)
	select {} // serve until the process is killed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffserve-worker:", err)
	os.Exit(1)
}
