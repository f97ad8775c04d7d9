#!/bin/sh
# Tier-1 verification: gofmt, vet, build, tests — one command.
set -e
cd "$(dirname "$0")/.."
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi
go vet ./...
# diffvet: the repo's own invariant analyzers (internal/analysis) —
# wire/codec field parity, pooled-message ownership, trace-time
# wall-clock bans, and global-rand bans. Exit 1 on any finding.
go run ./cmd/diffvet ./...
go build ./...
go test ./...
# The cluster runtime is the one heavily concurrent package (long-poll
# waiters, per-pool LB locks, sharded LB frontend, multiplexed TCP
# connections, broadcast wakeups, shared clock): run its data-path
# tests — including the TestLBServerPerPoolLockStress
# submit/pull/complete hammer and the transport conformance matrix —
# under the race detector. -short skips the wall-clock-calibrated
# end-to-end harness assertions, which the ~10x race slowdown would
# distort. The benchmark's smoke test rides along: it drives
# cluster.Run end to end with the controller ticking.
go test -race -short ./internal/cluster/ ./internal/parallel/ ./benchmark/
# Sharded-LB stress leg: the frontend fan-out/merge paths, the
# missed-wakeup notifier, and the drain/complete idempotency guard get
# an extra -count=2 hammering under -race (they are the newest
# concurrency surface).
go test -race -short -count=2 \
	-run 'TestShardedLBStress|TestLBPoolWakeupStress|TestDrainCompleteRaceNoDoubleResolve|TestNotifierCoalescing' \
	./internal/cluster/
# race-reshard leg: dynamic shard membership — consistent-hash ring
# epoch flips, drain migration with ownership transfer, retired-shard
# straggler sweeps, and worker re-pinning — raced under the detector,
# plus the ring's property tests.
go test -race -short -count=2 \
	-run 'TestReshardChaosNoLostOrDoubleResolve|TestTransportConformance/.*/epoch-flip-atomic-submit|TestTransportConformance/.*/drain-pull-ownership' \
	./internal/cluster/
# race-autoscale leg: the elasticity loop — the controller alone
# scales a 1-shard frontend to 4 and back under a bursty trace with
# exactly-once accounting, plus the epoch-quiescence collapse,
# retired-pump-termination, and membership-endpoint regressions. Not
# -short: the soak is the point, and its clock headroom tolerates the
# race slowdown.
go test -race -count=1 \
	-run 'TestHarnessAutoscaleTopology|TestManyReshardsCollapseEpochs|TestRetiredPumpsTerminate|TestMembershipEndpointHTTP|TestMembershipFollowerSyncsOverTCP' \
	./internal/cluster/
# race-chaos leg: the fault-tolerance machinery — pull-lease expiry
# sweeps and reclamation, retrying conns healing through scripted
# severs, worker churn under injected drops/latency, controller
# conservative failover, and shard degradation/spill — raced under the
# detector with exactly-once accounting.
go test -race -count=2 \
	-run 'TestChaosWorkerChurnNoLostQueries|TestTransportConformance/.*/lease-reclaim-exactly-once|TestTransportConformance/.*/retry-after-sever|TestControllerConservativeFailover|TestShardedLBDegradeSpill' \
	./internal/cluster/
go test -race ./internal/loadbalancer/
# race-milp leg: the warm-started incremental solver and its
# allocator threading — warm-vs-cold equivalence, node-limit
# degradation, concurrent Allocate calls serializing on one solver,
# and the threshold search's property tests (oracle vs solver, new
# search vs the legacy MILP-per-probe bisect) at their default size —
# raced under the detector (ISSUE 10 acceptance bar).
go test -race ./internal/milp/ ./internal/allocator/
# sweep-allocator leg: the same two property tests at full size
# (10 500 observations, 10 500 ticks) and the solver's long-horizon
# warm-vs-cold drift test (10^5 ticks) — see the Makefile target. Kept
# out of `go test ./...` so it does not compete for the box with the
# wall-clock-calibrated cluster tests.
make sweep-allocator
# poolpoison leg: recycled wire buffers are filled with NaN sentinels
# on release, so any handler that reads or resolves through a buffer
# the pool already owns fails loudly instead of serving stale floats.
# -short for the same wall-clock reason as the other race legs.
go test -race -short -tags poolpoison ./internal/cluster/
# bench-ring smoke: the consistent-hash lookup must stay within 2x of
# the static-modulus ShardOf (full numbers in PERFORMANCE.md).
go test -run '^$' -bench 'BenchmarkRingLookup|BenchmarkShardOf' -benchtime 100x ./internal/loadbalancer/ >/dev/null
