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
// -shard-addrs behavior). The -admin-port RPC adds or removes a shard
// at runtime without restarting the tier —
//
//	curl -X POST localhost:9100/add-shard \
//	    -d '{"member": 2, "addr": "localhost:8102"}'
//	curl -X POST localhost:9100/remove-shard -d '{"member": 0}'
//
// The controller installs the new ring epoch on its own frontend —
// new submits route by ShardOf over the new sorted membership — drains
// a removed shard's queued work to the survivors (an add moves nothing
// already queued), and re-stripes worker roles on the next control
// tick. The epoch lives in that frontend alone — no shard, worker or
// client is told of it — so a separately running diffserve-client or
// diffserve-worker keeps routing by the -shard-addrs it was started
// with.
//
// -workers is parsed like -shard-addrs: blanks around an address and
// empty entries (a trailing comma) are dropped, so every listed worker
// is a real one when the allocator counts them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
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
		adminPort  = flag.Int("admin-port", 0, "admin API port for runtime add-shard/remove-shard (0 = disabled; needs -shard-addrs)")
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
	var frontend *cluster.ShardedLB
	shards := 1
	if *shardAddrs != "" {
		if frontend, err = cluster.DialShardedLB(*shardAddrs, clock); err != nil {
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
	})
	if *adminPort > 0 {
		if frontend == nil {
			fatal(fmt.Errorf("-admin-port needs a sharded tier (-shard-addrs)"))
		}
		go serveAdmin(*adminPort, frontend, loop)
	}
	fmt.Printf("diffserve-controller: %d workers, %d LB shard(s), SLO %.1fs, interval %.1fs\n",
		len(workerURLs), shards, deadline, *interval)
	loop.Run(context.Background())
}

// serveAdmin exposes the runtime resharding RPC: POST /add-shard
// {"member": N, "addr": "host:port"} dials the new shard and installs
// a grown ring epoch; POST /remove-shard {"member": N} shrinks the
// ring and migrates the departing shard's queued work. Role striping
// follows on the next control tick.
func serveAdmin(port int, fe *cluster.ShardedLB, loop *cluster.ControllerLoop) {
	type reshardReq struct {
		Member int    `json:"member"`
		Addr   string `json:"addr"`
	}
	reply := func(w http.ResponseWriter, err error) {
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		loop.SetShards(fe.Shards())
		json.NewEncoder(w).Encode(map[string]interface{}{
			"epoch": fe.Epoch(), "members": fe.Members(),
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/add-shard", func(w http.ResponseWriter, r *http.Request) {
		var req reshardReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		conn, err := cluster.DialLB(req.Addr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply(w, fe.AddShard(r.Context(), req.Member, conn))
	})
	mux.HandleFunc("/remove-shard", func(w http.ResponseWriter, r *http.Request) {
		var req reshardReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply(w, fe.RemoveShard(r.Context(), req.Member))
	})
	mux.HandleFunc("/ring", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]interface{}{
			"epoch": fe.Epoch(), "members": fe.Members(),
		})
	})
	if err := http.ListenAndServe(fmt.Sprintf(":%d", port), mux); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffserve-controller:", err)
	os.Exit(1)
}
