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
# wall-clock bans, global-rand bans, and dead code under internal/.
# Exit 1 on any finding.
go run ./cmd/diffvet ./...
go build ./...
# The cluster's kernel sleep is Linux-only behind a build tag; building
# for another OS keeps its fallback compiling.
GOOS=darwin GOARCH=arm64 go build ./...
# The four sizes the ROADMAP's bars are stated in.
make loc
go test ./...
# Every race-detector leg — the cluster data path, the sharded
# frontend, the tcp transport's posted calls, the chaos soak, shard
# placement, solver and allocator, and the poolpoison build — and
# the poolpoison suite without the detector. The legs and what each is
# for are listed once, in the Makefile.
make race poison-test
# sweep-allocator leg: the two allocator property tests at full size
# (10 500 observations, 10 500 ticks) and the solver's long-horizon
# warm-vs-cold drift test (10^5 ticks) — see the Makefile target. Kept
# out of `go test ./...` so it does not compete for the box with the
# wall-clock-calibrated cluster tests.
make sweep-allocator
