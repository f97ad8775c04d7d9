// Command diffserve-client replays a workload trace against a running
// DiffServe cluster (the artifact's start_client.sh) and reports
// end-to-end quality and SLO statistics when the trace ends.
//
// The replay uses the batched data path: queries due at the same
// moment are submitted in one request over a persistent connection,
// and completions stream back through long-poll result fetches.
//
//	diffserve-client -lb localhost:8100 -trace trace_4to32qps.txt -timescale 0.1
//	diffserve-client -lb localhost:8100 -min 4 -max 32 -duration 360
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/fid"
	"diffserve/internal/metrics"
	"diffserve/internal/model"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

func main() {
	var (
		lbURL     = flag.String("lb", "localhost:8100", "load balancer address (host:port)")
		traceFile = flag.String("trace", "", "trace file (empty: generate an Azure-like trace)")
		cascadeN  = flag.String("cascade", "cascade1", "cascade (for query content + SLO)")
		minQPS    = flag.Float64("min", 4, "generated trace minimum QPS")
		maxQPS    = flag.Float64("max", 32, "generated trace maximum QPS")
		duration  = flag.Float64("duration", 360, "generated trace duration (seconds)")
		seed      = flag.Uint64("seed", 20250610, "shared experiment seed")
		timescale = flag.Float64("timescale", 0.1, "wall seconds per trace second")
	)
	flag.Parse()

	env, err := baselines.NewEnv(*cascadeN, *seed, 500)
	if err != nil {
		fatal(err)
	}
	var tr *trace.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		raw, err := trace.AzureLike(stats.NewRNG(*seed+1), *duration, 1)
		if err != nil {
			fatal(err)
		}
		tr, err = raw.ScaleTo(*minQPS, *maxQPS)
		if err != nil {
			fatal(err)
		}
	}

	arrivals := tr.Arrivals(stats.NewRNG(*seed + 17).Stream("trace"))
	fmt.Printf("diffserve-client: replaying %s (%d queries) at %gx speed\n",
		tr.Name(), len(arrivals), 1 / *timescale)

	clock := cluster.NewClock(*timescale)
	conn, err := cluster.DialLB(*lbURL)
	if err != nil {
		fatal(err)
	}
	col := metrics.NewCollector()
	realFeats := make([][]float64, len(arrivals))
	for i := range arrivals {
		q := env.Space.SampleQuery(i)
		realFeats[i] = env.Space.RealImage(q)
	}

	// The collector stops at a hard deadline (trace end plus a drain
	// grace) even if some results never arrive — a lost long-poll
	// response loses its popped results, and an unbounded wait would
	// hang the binary. Unaccounted queries are recorded as drops,
	// like the old per-query path did on request errors.
	grace := model.DrainGrace(env.Spec.SLOSeconds, env.Heavy)
	wallDeadline := time.Now().Add(clock.WallDuration(tr.Duration()+grace) + 5*time.Second)
	ctx := context.Background()
	done := make(chan struct{})
	unresolved := 0 // queries whose result never arrived; read after done
	go func() {     // collector: long-poll completions until all accounted
		defer close(done)
		seen := make(map[int]bool, len(arrivals))
		for len(seen) < len(arrivals) && time.Now().Before(wallDeadline) {
			// A fresh response per poll: the collector keeps each result's
			// Features, which a reused struct would decode over.
			var resp cluster.ResultsResponse
			if err := conn.PollResultsInto(ctx, cluster.ResultsRequest{Max: 1024, Wait: 2}, &resp); err != nil {
				clock.WaitUntil(ctx, clock.Now()+0.1, nil)
				continue
			}
			// Arrival/Completion both come from the LB's trace clock:
			// the processes' clocks start at different wall times, so
			// only server-side stamps are mutually consistent.
			for _, r := range resp.Results {
				if seen[r.ID] {
					continue
				}
				seen[r.ID] = true
				if r.Dropped {
					col.Record(metrics.QueryRecord{ID: r.ID, Arrival: r.Arrival, Deadline: r.Arrival + env.Spec.SLOSeconds, Dropped: true})
					continue
				}
				col.Record(metrics.QueryRecord{
					ID: r.ID, Arrival: r.Arrival, Completion: r.Completion,
					Deadline: r.Arrival + env.Spec.SLOSeconds, Deferred: r.Deferred,
					ServedBy: r.Variant, Confidence: r.Confidence,
					Features: r.Features, Artifact: r.Artifact,
				})
			}
		}
		unresolved = len(arrivals) - len(seen)
		for id, at := range arrivals {
			if !seen[id] {
				col.Record(metrics.QueryRecord{ID: id, Arrival: at, Deadline: at + env.Spec.SLOSeconds, Dropped: true})
			}
		}
	}()

	batch := make([]cluster.QueryMsg, 0, 64)
	i := 0
	for i < len(arrivals) {
		clock.WaitUntil(ctx, arrivals[i], nil)
		now := clock.Now()
		batch = batch[:0]
		for i < len(arrivals) && arrivals[i] <= now {
			// Zero arrival: the LB stamps the query with its own trace
			// clock on admission. Sending the client's arrival value
			// would mix two clocks that started at different wall
			// times and shed everything as instantly expired.
			batch = append(batch, cluster.QueryMsg{ID: i})
			i++
		}
		if err := conn.SubmitBatch(ctx, cluster.SubmitRequest{Queries: batch}); err != nil {
			fatal(err)
		}
	}
	<-done
	fmt.Println("Trace ended")

	ref, err := fid.NewReference(realFeats)
	if err != nil {
		fatal(err)
	}
	sum := col.Summarize(ref)
	fmt.Printf("queries          %d\n", sum.Queries)
	fmt.Printf("unresolved       %d\n", unresolved)
	fmt.Printf("FID              %.2f\n", sum.FID)
	fmt.Printf("SLO violations   %.3f (drops %.3f)\n", sum.ViolationRatio, sum.DropRatio)
	fmt.Printf("deferred         %.2f\n", sum.DeferRatio)
	fmt.Printf("latency mean/p99 %.2fs / %.2fs\n", sum.MeanLatency, sum.P99Latency)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffserve-client:", err)
	os.Exit(1)
}
