// Package diffserve is a from-scratch Go reproduction of "DiffServe:
// Efficiently Serving Text-to-Image Diffusion Models with Query-Aware
// Model Scaling" (MLSys 2025).
//
// DiffServe serves text-to-image diffusion queries through a model
// cascade: every query is first generated by a lightweight diffusion
// model, a trained discriminator scores the output, and only
// low-confidence ("hard") queries are deferred to a heavyweight model.
// A mixed-integer-linear-programming resource allocator co-optimizes
// the confidence threshold, per-pool worker counts, and batch sizes
// against latency SLOs and fluctuating demand.
//
// This package is the public facade. It exposes:
//
//   - Serve: run any serving approach from the paper (DiffServe, its
//     static variant, Proteus, Clipper-Light/Heavy, and the §4.5
//     allocator ablations) on synthetic or Azure-shaped traces inside
//     the discrete-event simulator, returning quality (FID) and SLO
//     metrics.
//   - RunExperiment: regenerate any table or figure of the paper's
//     evaluation by name.
//
// The heavy machinery lives in internal packages: the generative
// feature-space model that substitutes for GPU inference
// (internal/imagespace), exact FID (internal/fid, internal/linalg),
// the discriminator zoo (internal/discriminator), cascades
// (internal/cascade), the resource allocator (internal/allocator), the
// discrete-event system simulator (internal/system), and the cluster
// runtime (internal/cluster).
// The sections below are the system inventory; `diffserve-sim -list`
// names every experiment and `diffserve-sim -experiment <name>`
// prints its measured table.
//
// # Data-path policy
//
// What happens to a query on the data path (paper §3) is one small
// policy, and the simulator and the cluster runtime call the same code
// for it. internal/loadbalancer is that code, with no clock, lock or
// goroutine in it: Decide routes an arrival to a pool; Pool is a
// pool's FIFO with its shed rule (a query that cannot finish by its
// deadline even if started now with a batch-1 execution is dropped)
// and its dequeue rule (a worker that asks for a batch gets whatever is
// queued, up to its batch size — neither driver holds a partial batch
// back for a coalesce window); Defers is the cascade's verdict on a
// light result's confidence; Ledger builds the completed or dropped
// record, hands it to its owner's recorder (the simulator's
// metrics.Collector, the LB's fixed-size metrics.Tally), and keeps the
// arrival and violation counts the controller polls. worker.AssignRoles turns a plan's pool sizes into per-worker
// roles, keeping workers in place. internal/system drives these from
// its event ring and keeps only worker timing and image generation;
// cluster.LBServer drives them under its per-pool locks and keeps what
// a server needs — wakeups, long polls, result buffering and one table
// of live queries, each entry holding its query's redelivery count and,
// while a worker has it, its lease; cluster.ControllerLoop applies plans
// through the same role assignment (per shard group when workers are
// pinned to shards, as benchmark/'s control_tick pins them). Both
// drivers shed at dispatch and again at every control tick
// (LBServer.Stats is the cluster's tick), so a query waiting in a pool
// no worker serves still resolves, as a drop.
//
// # Cluster transports
//
// The cluster runtime (load balancer, workers, controller — also
// available as the standalone cmd/diffserve-{lb,worker,controller,
// client} processes) wires its components through a pluggable
// transport seam. Two transports ship with the package, and one codec
// goes over the wire:
//
//   - "tcp": framed TCP — persistent multiplexed connections carrying
//     length-prefixed frames with the hand-rolled binary codec. It is
//     what every standalone binary serves and dials (addresses are
//     host:port; there is no transport or codec flag) and the default
//     of cluster.NewTransport and the harness. With the pooled wire
//     path the full submit/pull/complete/collect cycle runs at under 2
//     allocations per query (PERFORMANCE.md, "TCP wire and codec"): the
//     server decodes into pooled messages released after dispatch,
//     clients decode long polls into caller-owned response structs
//     (PullInto, PollResultsInto), request/response correlation reuses
//     generation-checked slots instead of per-call channels, and frame
//     writes coalesce into one flush per burst. SubmitBatch and
//     Complete are posted: accepted in order, applied before any later
//     call on the same conn, replayed on redial until acknowledged
//     (cluster.LBConn states the contract). The sim-vs-cluster
//     validation runs it at 50x real time.
//   - "inproc": in-process direct dispatch with zero serialization —
//     and zero steady-state allocation — for harness validation at
//     the highest timescale factors.
//
// cluster.LBConn is the six calls the system makes — SubmitBatch,
// PullInto, Complete, PollResultsInto, Configure, Stats — and every
// conn (tcp, inproc, the ShardedLB frontend) implements all of them.
// The binary codec (cluster.CodecBinary) is the only encoding in the
// package: a frame names no codec. The cluster tests hold it to an
// encoding/json reference over the messages' json tags, and
// TestCodecRoundTripsEveryField fills every field of every message in
// wire.go with a distinct value by reflection and requires an exact
// round trip, also into a message already holding other values.
//
// The two transports are behaviorally interchangeable: a shared
// conformance suite exercises both, plus the sharded topologies
// (including a buffer-reuse-no-alias row pinning the buffer-ownership
// contract documented in the cluster package), and fuzz targets cover
// the binary codec and TCP frame decoders that face raw network
// bytes. The "Buffer ownership" section of the cluster package doc
// states who owns which slice on each call; TestWirePathAllocs (`make
// allocs-gate`) pins the tcp allocation budget, and `make poison-test`
// reruns the suite with released pool buffers poisoned (NaN sentinels)
// to catch use-after-release.
//
// # Sharded LB tier
//
// cluster.ShardedLB is an in-process tier: a frontend that partitions
// the query stream by ID hash across N independent LBServer shards,
// each reachable over either transport, and re-exposes them as one
// LBConn. The harness builds it when HarnessConfig.LBShards is above
// one, and benchmark/ builds it for its dataplane_sharded and
// control_tick workloads; every serving binary serves or dials exactly
// one LB. Membership is fixed when the frontend is built: shard i is
// the i-th conn (at least two), and a query belongs to shard
// loadbalancer.ShardOf(id, N) (an FNV-1a hash mod N). Each shard draws
// routing randomness from its own stream "lb/<shard>" of the run seed.
//
// The frontend fans SubmitBatch out per shard, merges PollResultsInto
// streams (one background pump per shard), sends each Complete item to
// its query's owner, broadcasts Configure, and sums Stats. A PullInto
// through the frontend gathers its batch from as many shards as it
// takes to fill req.Max, under the earliest lease deadline any of them
// granted. Shards served in the frontend's own
// process cost it no goroutines: their legs of every fan-out run
// inline on the caller, and a PollResultsInto call collects from them
// itself before it parks; only legs that cross a wire fly concurrently
// and rely on the pumps. The harness's workers pull through the
// frontend, so every worker of a role serves every shard's queue of
// that role — one queue per pool, as in the simulator. A query's
// submit and its completion go to its owner alone, the completion with
// the worker's lease deadline, so the frontend keeps no per-query
// state. PERFORMANCE.md's "ShardedLB frontend" section has what the
// frontend costs per query.
//
// # Allocation control loop
//
// Every control tick re-solves the paper's resource-allocation MILP:
// the controller (internal/controller) EWMA-smooths observed demand,
// the allocator (internal/allocator) bisects the confidence-threshold
// grid on a closed-form feasibility test (some batch pair meets the
// latency row and its minimal worker counts fit the budget), and at
// the largest feasible threshold it solves the program exactly by
// enumeration: every admitted batch pair, every split of the worker
// budget between the pools, the first optimum in scan order kept. At
// DiffServe's size that is a few hundred candidates, one full Allocate
// runs in microseconds with a couple of allocations
// (BenchmarkControlTickSolve), and the oracle and the enumeration go
// through one admissibility test, so they cannot disagree. The
// allocator's tests hold both to a brute-force scan of the program as
// the paper writes it — every batch pair and worker split checked
// against Eqs. 1-4 directly — at every grid index and at every probe
// of the bisect, and require the same plans. The allocator holds no
// state between ticks; a plan-sequence hash
// (internal/allocator/testdata/plan_sequence.pin) pins its output bit
// for bit. The cluster's ControllerLoop then pushes the plan, sending
// the LB's policy and each worker's configure only when the request
// differs from the last one that receiver acknowledged: a failed or
// cancelled send leaves the receiver unknown and is re-sent on the next
// apply, and so is the state of a receiver whose tcp connection dropped
// since it acknowledged (a restarted process), so a steady plan costs
// no configure RPC. The loop reports through
// ControllerConfig.Logf (diffserve-controller logs to stderr): each
// stats-poll miss, the conservative failover and its recovery, and one
// line per half-applied plan naming what the next apply re-sends.
// PERFORMANCE.md's "Control tick" and "control_tick" sections have what
// a tick costs and where its time goes.
//
// # Failure model
//
// The cluster survives worker death and connection flaps with
// exactly-once query resolution. The data
// path is pull-based, so the core mechanism is a lease on every
// pulled batch (LBConfig.LeaseDuration, default 4x the SLO; the
// -lease flag on diffserve-lb):
//
//	worker W                LB                       worker W'
//	  |-- pull ------------->|  stamp lease: deadline =             |
//	  |<- batch{lease} ------|  now + dur (hard cap grant + 4*dur)  |
//	  |                      |  W's later pulls/completes heartbeat |
//	  |                      |  the lease forward ...               |
//	  X  (W dies)            |                                      |
//	  .                      |== sweep (piggybacked on every pull,  |
//	  .                      |   complete, and stats call): expired |
//	  .                      |   leases re-queue through the        |
//	  .                      |   re-submit path, arrival stamp and  |
//	  .                      |   pool override intact ==            |
//	  .                      |<------------------------------ pull -|
//	  .                      |- batch{fresh lease} ---------------->|
//	  .                      |<-------------------------- complete -|
//	  |-- complete (zombie) >|  late report: idempotent resolve     |
//	  |                      |  no-ops it (LateCompletions counter) |
//
// A query reclaimed more than LeaseRedeliveries times (default 3) is
// shed as a deliberate drop rather than looping forever through dying
// workers — exactly-once here means "resolved exactly once, as a
// completion or as an accounted drop" (LBStats.Reclaims,
// ShedRedelivery, InFlight expose the lifecycle). The bound counts per
// query: a deferral to the heavy pool does not reset it. No lease
// outlives its query, by construction: the lease is a field of the
// query's entry in the LB's table of live queries, and resolving the
// query deletes the entry, so InFlight is 0 once every query resolved.
// A reclaimed copy whose query the zombie's late report resolved finds
// no entry and is discarded at dequeue.
//
// A worker recovers from a lost or restarted LB in one way, with
// three parts. The tcp conn redials on its next call and replays,
// ahead of anything else, the SubmitBatch and Complete frames the LB
// never acknowledged. The worker backs off in trace time: a failed
// pull waits and pulls again on the same conn, and a failed Complete
// is retried a few times with jittered exponential back-off. What is
// still left over — a batch whose Complete never landed, a lease on
// an LB that died — is reclaimed by the lease sweep above. Every one
// of those waits is a Clock.WaitUntil except the tcp dialer's.
// Transport error events are classified transient versus fatal
// (cluster.TransientTransportError), so the harness aborts runs on
// real faults but rides out injected or recovered ones. The sharded
// tier adds no failure domain: every shard is an LBServer in the
// frontend's own process, so a shard dies only with the whole process,
// and a dead shard holding queued or leased queries while the rest
// serve cannot arise. A shard conn's error reaches the frontend's
// caller as an LBServer's error does: a failed SubmitBatch, Complete
// or Configure leg is returned (joined with the other legs'), a pull
// returns what it already gathered, a result pump backs off and polls
// again, and Stats carries the counters of the shards it did poll into
// the next merge. A controller blinded by stats-poll failures for three
// consecutive ticks fails over to a conservative plan (threshold zero
// — light-only routing — with the worker layout kept) until polls
// recover.
//
// Faults themselves are injected deterministically by a test-only
// FaultTransport (internal/cluster/fault_test.go): it wraps any
// transport and applies seeded request/response drops, latency
// spikes, conn severs, and one-way partitions from a scriptable
// schedule. The chaos soak (TestChaosWorkerChurnNoLostQueries, `make
// chaos-soak`, one of `make race`'s legs) kills busy workers and
// severs conns mid-trace and requires every submitted query to resolve
// exactly once.
//
// # Trace time
//
// The cluster runs on trace time: cluster.Clock maps wall time to
// trace seconds at a timescale (0.005 replays at 200x), and every
// timed wait in the runtime — long polls, worker batches, control
// ticks, the replay client and the trace-time back-offs — is one call, Clock.WaitUntil(ctx, deadline,
// wake): block until the absolute trace deadline, a wakeup channel,
// or the context, allocating nothing. (Only the tcp dialer's back-off
// is a wall duration and stays outside the clock.) A Go timer wakes
// late: the runtime's poller rounds a sub-millisecond delay up to a
// whole millisecond, ~0.12 trace-seconds at 200x, a whole light
// batch. So a wait without a wake channel — a schedule wait: a
// batch's end, a control tick, a replayed arrival — parks
// on a pooled timer only until one millisecond before its deadline
// and, on Linux, sleeps the rest in the kernel (nanosleep), which
// lands within tens of microseconds; elsewhere it stays on the timer.
// A long poll (with a wake channel) stays on the timer. Deadlines are
// absolute, so the two periodic loops wait for their own schedule
// rather than an interval after the last wake. A worker starts each
// batch when both it and the batch were ready — the latest of its
// previous batch's scheduled end and the time the batch's newest
// query joined the pool (PullResponse.QueuedAt) — credited back from
// the pull's return by at most one 1 ms timer tick (so a stalled
// completion is not replayed as GPU time), never later than that
// return, and completes it at start + exec. The worker waits in one
// place: its pull step starts the batch and returns that end without
// waiting, WorkerServer.Loop waits for it, and its finish step
// generates, scores and reports the images. The controller ticks at
// t0 + k·interval, t0 being when its loop starts. One late wake then
// delays one step, not every later one, and no query is served sooner
// after it was queued than the emulated GPU allows. The harness's
// trace zero is its clock restart, after the cluster is built: the
// initial plan is applied at it, so each worker's role is stamped on
// the new clock, and the workers and the control loop start after it,
// so no wait of theirs was armed on the old one.
// PERFORMANCE.md ("Trace-time Clock") has the timer probes and what
// they moved.
//
// # Static analysis
//
// Several of the invariants above are conventions no compiler checks:
// pooled messages must not be touched after ReleaseMessage,
// trace-time packages must route time through cluster.Clock, and
// randomness must flow from seeded per-component streams rather than
// the global math/rand source. diffvet (cmd/diffvet, `make lint`, the
// CI lint job) enforces them mechanically with four analyzers built
// on internal/analysis, a self-contained, stdlib-only framework in
// the shape of golang.org/x/tools/go/analysis. (That the binary codec
// carries every wire-struct field is a test, not an analyzer:
// TestCodecRoundTripsEveryField, above.)
//
//   - poolownership: a value acquired from a typed sync.Pool helper is
//     either released or handed off on every path, and never used
//     after release.
//   - walltime: no time.Now/Sleep/After/Tick/Since/Until in the
//     trace-time packages (internal/cluster, simring, queueing,
//     system); wall time belongs to the Clock boundary and to
//     explicitly annotated sites.
//   - globalrand: no global math/rand draws anywhere in the module —
//     determinism and sim-vs-cluster parity depend on seeded streams.
//   - deadcode: no declaration under internal/ that only tests use;
//     TestDeadcodeAllowsPinned lists the seven keepers.
//
// Any finding fails the build. The escape hatch is a same-line or
// line-above comment with a mandatory reason,
//
//	//diffvet:allow walltime — shutdown watchdog must fire on wall time even if the trace clock stalls
//
// and a reasonless or nameless directive is itself a finding, so
// every suppression in the tree documents why the invariant does not
// apply. The walltime escapes are few enough to list: a tier-1 test
// (TestWallInventoryPinned) pins all seven — the Clock's three
// anchors and the harness's four wall-time measurements and
// watchdogs — so a new wall read has to be added to it by name.
//
// # Kept for benchmark/
//
// The frozen benchmark (benchmark/, BENCHMARK.json) reads a few
// declarations and sets a few knobs that nothing else in the module
// uses, and it builds the sharded LB tier. TestBenchmarkOnlySurfacePinned
// (internal/analysis/deadcode, run by `make lint`) pins that surface:
// what deadcode reports once benchmark/ is left out, the config fields
// only benchmark/ sets, and the files that name the tier (shard.go, the
// harness and controller hooks, transport.go's LBConn assertion and
// simVsCluster's shard count). Each
// pinned declaration carries a one-line "benchmark/ only" mark naming
// the benchmark file and workload that read it. The pins only shrink:
// new code builds on something else, and ROADMAP item P deletes the
// surface together with the benchmark code that reads it.
package diffserve
