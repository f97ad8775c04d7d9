# DiffServe reproduction — tier-1 verification and benchmark targets.

GO ?= go

# verify is the tier-1 gate: formatting, static checks, build, tests,
# and the diffvet invariant suite.
.PHONY: verify
verify: fmt-check vet lint build test

.PHONY: fmt-check
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

.PHONY: vet
vet:
	$(GO) vet ./...

# lint runs the diffvet static-analysis suite (internal/analysis):
# codecparity, deadcode, poolownership, walltime, and globalrand.
# deadcode flags, under internal/, packages no other package imports,
# and declarations and struct fields no non-test file of the module
# uses or reads. Exit 1 on any finding; suppress only with
# //diffvet:allow <analyzer> — <reason>.
.PHONY: lint
lint:
	$(GO) run ./cmd/diffvet ./...

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

# loc prints the four sizes the ROADMAP's bars are stated in, counted
# one way: lines of tracked non-test Go in the repo, in internal/cluster
# and in the data-path policy's homes (the core in internal/loadbalancer,
# internal/queueing and internal/worker plus its two drivers), and
# lines of tracked _test.go.
POLICY_HOMES = internal/cluster/lb.go internal/cluster/controller.go \
	'internal/system/*.go' internal/loadbalancer/loadbalancer.go \
	'internal/queueing/*.go' 'internal/worker/*.go'
.PHONY: loc
loc:
	@printf 'non-test Go, repo:             %s\n' "$$(git ls-files '*.go' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@printf 'non-test Go, internal/cluster: %s\n' "$$(git ls-files 'internal/cluster/*.go' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@printf 'non-test Go, policy homes:     %s\n' "$$(git ls-files $(POLICY_HOMES) | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@printf '_test.go:                      %s\n' "$$(git ls-files '*_test.go' | xargs cat | wc -l)"

# bench regenerates every figure benchmark (minutes).
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-perf runs just the perf-pipeline benchmarks this refactor
# tracks (see PERFORMANCE.md); the RNG's two: the per-query
# re-seed-and-draw-20 pattern and the steady-state draw, each next to
# math/rand's seeded source; and the simulator's per-query layers: one
# 16-dim moment update, one 16-dim Fréchet cross term, a generation
# on a query with nothing memoized (GenerateMiss) and a scorer's draw on
# a query ID it has not scored (ConfidenceMiss).
.PHONY: bench-perf
bench-perf:
	$(GO) test -run '^$$' -bench 'Fig5$$|MomentsStreaming|MomentsBatch|GenerateCached|GenerateMiss|ConfidenceMiss|ExperimentsSerial|ExperimentsParallel' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkReseedDraw20|BenchmarkLongStream|BenchmarkMomentAdd16' -benchmem ./internal/stats/
	$(GO) test -run '^$$' -bench 'BenchmarkTraceSqrtProduct16' -benchmem ./internal/linalg/

# bench-all runs the repo's benchmark (benchmark/, BENCHMARK.json):
# every workload ten times, each run a fresh process, medians and
# spreads in one document (about 12 minutes). It goes through
# benchmark/run.sh, whose `go build` stamps the document with the
# commit; `go run` would leave it "unknown". bench-compare holds two
# such documents against each end-to-end metric's bound, e.g.
#
#	make bench-all OUT=/tmp/new.json
#	make bench-compare BASE=/tmp/base.json NEW=/tmp/new.json
#
# BENCH_e2e.json is the committed ledger of those medians, one entry
# per measured commit; PERFORMANCE.md quotes it.
OUT ?= benchmark/out/all.json
.PHONY: bench-all
bench-all:
	@mkdir -p $(dir $(OUT))
	bash benchmark/run.sh -all -repeat 10 -o $(OUT) >/dev/null

.PHONY: bench-compare
bench-compare:
	bash benchmark/run.sh -compare $(BASE) $(NEW)

# bench-pairs measures a perf claim: PAIRS alternating pairs of
# 10-second runs of one workload, the revision BASE against the working
# tree, each side built from its own source; it prints every end-to-end
# metric per seed, each side's median and quartiles, and the change's
# win count (scripts/bench-pairs.sh), e.g.
#
#	make bench-pairs BASE=HEAD~1 WORKLOAD=cluster_trace PAIRS=10 SEEDS="1 2 3 4 5 6 7 8 7001 7002"
PAIRS ?= 10
SEEDS ?=
.PHONY: bench-pairs
bench-pairs:
	bash scripts/bench-pairs.sh $(BASE) $(WORKLOAD) $(PAIRS) "$(SEEDS)"

# bench-smoke runs every workload once at a tenth of the size (about
# 9 s after the build) and fails unless each reports correct: true. It
# is the one place run.sh's build and the -all re-exec path (a fresh
# process per workload) are exercised outside a full measurement.
.PHONY: bench-smoke
bench-smoke:
	@mkdir -p benchmark/out
	bash benchmark/run.sh -all -seconds 1 -o benchmark/out/smoke.json >/dev/null

# sweep-allocator runs the allocator's property tests at full size:
# the closed-form feasibility oracle and the exact enumeration against
# a brute-force scan of the program on 10 500 random observations x
# every threshold-grid index x 7 config variants, and Allocate against
# the solve-every-probe bisect over 10 500 drifting-demand ticks (~1 s
# together). `go test ./...` runs them at 1/15 of that so the package
# stays off the box while the cluster's wall-clock-calibrated tests
# run.
.PHONY: sweep-allocator
sweep-allocator:
	$(GO) test -run 'TestOracleMatchesSolver|TestAllocateMatchesLegacyBisect' ./internal/allocator/ -sweep 1500

# allocs-gate pins the zero-allocation wire path: the end-to-end
# tcp cycle must stay within 16 allocs/op (8 queries/op, so
# <= 2 allocs per query) and the in-process transport within 8.
# Baseline before pooling: tcp 73 allocs/op (see PERFORMANCE.md).
.PHONY: allocs-gate
allocs-gate:
	@out="$$($(GO) test -run '^$$' -bench 'BenchmarkWirePath' -benchmem -count=1 ./internal/cluster/)" \
		|| { echo "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson \
		-max-allocs 'BenchmarkWirePath/tcp=16,BenchmarkWirePath/inproc=8'

# allocator-allocs-gate pins the allocator's allocations: one full
# Allocate is the closed-form threshold search plus the exact
# enumeration at the threshold it picks (2 allocs/op, the threshold
# grid's two slices), a 10-pool control tick ten of them (20). The
# budgets are 4 and 40: an allocation creeping into the per-candidate
# scan, or a solver that builds a problem per tick (the branch-and-bound
# the enumeration replaced took 37 and 371), fails the gate.
.PHONY: allocator-allocs-gate
allocator-allocs-gate:
	@out="$$($(GO) test -run '^$$' -bench 'BenchmarkMILPSolve|BenchmarkControlTickSolve' -benchtime 20x -benchmem -count=1 .)" \
		|| { echo "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson \
		-max-allocs 'BenchmarkMILPSolve=4,BenchmarkControlTickSolve/pools=10=40'

# race is every race-detector leg, the one list scripts/verify.sh and
# CI run too; each leg is also a target of its own. -short (where set)
# skips the wall-clock-calibrated harness assertions the ~10x slowdown
# distorts. Raise COUNT for a longer hunt on the soak legs.
COUNT ?= 2
.PHONY: race
race: race-cluster race-sharded race-posted chaos-soak race-solver race-poison race-space

# race-cluster: the cluster data path (the per-pool lock stress hammer
# and the transport conformance matrix included), the parallel helpers,
# the load-balancer policy and shard placement, and the benchmark's
# smoke test, which
# drives cluster.Run end to end with the controller ticking.
.PHONY: race-cluster
race-cluster:
	$(GO) test -race -short ./internal/cluster/ ./internal/parallel/ ./benchmark/
	$(GO) test -race ./internal/loadbalancer/

# race-sharded: the frontend fan-out/merge paths (Complete's reads of
# where each query was sent, against the pumps releasing them), the
# missed-wakeup notifier, the drain/complete idempotency guard, and the
# nothing-left-tracked regression; that one runs 30 times more (~2 s),
# the count that exposes a result published before its record is
# released.
.PHONY: race-sharded
race-sharded:
	$(GO) test -race -short -count=$(COUNT) \
		-run 'TestShardedLBStress|TestLBPoolWakeupStress|TestDrainCompleteRaceNoDoubleResolve|TestNotifierCoalescing|TestShardedLBLateCompletionCounted|TestShardedLBMixedLegs|TestFrontendLeavesNothingTracked' \
		./internal/cluster/
	$(GO) test -race -short -count=30 -run 'TestFrontendLeavesNothingTracked' ./internal/cluster/

# race-posted: the tcp transport's posted calls — posters, callers, the
# flusher and the read loop sharing one connection; replay after a lost
# connection; the bound; Close with frames unacknowledged; try-first
# serving. (The posted-order conformance row is single-threaded and
# runs once per transport in race-cluster.)
.PHONY: race-posted
race-posted:
	$(GO) test -race -count=10 \
		-run 'TestTCPPosted|TestTCPCloseWithPostedFrames|TestTCPInlineResponseNotStranded|TestTCPTryFirst' \
		./internal/cluster/

# chaos-soak: the fault-tolerance suite — the worker-churn soak (killed
# workers, severed conns, injected drops/latency, exactly-once
# accounting), the lease-reclaim and sever-is-transient conformance rows
# on both transports, a worker riding out an LB restart, the
# controller/shard failover units, and the controller re-configuring a
# worker or an LB shard restarted behind the same address.
.PHONY: chaos-soak
chaos-soak:
	$(GO) test -race -count=$(COUNT) \
		-run 'TestChaosWorkerChurnNoLostQueries|TestTransportConformance/.*/lease-reclaim-exactly-once|TestTransportConformance/.*/sever-is-transient|TestWorkerResumesAfterLBRestart|TestControllerConservativeFailover|TestShardedLBDegradeSpill|TestControllerReconfiguresRestarted|TestControllerResendsAfterConnectionLoss|TestControllerReadsLossesBeforeSending' \
		./internal/cluster/

# race-solver: the allocator under the race detector — concurrent
# Allocate calls on one allocator, and the property tests at their
# default size.
.PHONY: race-solver
race-solver:
	$(GO) test -race ./internal/allocator/

# race-space: the simulator's concurrency — one Space and one scorer
# shared by many goroutines on pooled scratch RNGs, with images memoized
# on each *Query under its Space's lock (TestGenerateDeterministicConcurrent,
# TestConfidenceConcurrentMatchesSerial), the producer filling a run's
# query table ahead of the event loop (TestRunIdenticalAcrossProcs), the
# timeline scoring its buckets in parallel, and the experiment harness
# running simulations in parallel over one Space.
.PHONY: race-space
race-space:
	$(GO) test -race ./internal/imagespace/ ./internal/discriminator/ ./internal/system/ ./internal/metrics/
	$(GO) test -race -run TestFanOutSerialParallelIdentical ./internal/experiments/

# race-poison: the cluster suite under the race detector with recycled
# buffers filled with NaN sentinels on release (see pool_poison.go).
.PHONY: race-poison
race-poison:
	$(GO) test -race -short -tags poolpoison ./internal/cluster/

# poison-test runs the cluster suite with recycled buffers poisoned on
# release: any read or resolve of a buffer the pool already owns — a
# posted frame recycled before its acknowledgement, say — fails loudly
# instead of silently serving stale bytes. The full suite runs without
# the race detector; the race leg is race-poison above (`make race
# poison-test` runs it once).
.PHONY: poison-test
poison-test: race-poison
	$(GO) test -tags poolpoison ./internal/cluster/

# fuzz-smoke runs each fuzz target briefly on top of the committed
# seed corpus (testdata/fuzz): the decoders and the lazily seeded RNG
# source's parity with math/rand. CI runs this on every push; raise
# -fuzztime for a deeper local hunt.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime=10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime=10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzLazySourceParity -fuzztime=10s ./internal/stats/
