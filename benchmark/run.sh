#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from the checkout it is
# run from and runs it with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload dataplane_tcp --seed 1 --seconds 10 --trace 0
#
# Everything the build writes — the binary and Go's own build cache —
# stays under .bench_build/ of the checkout, so a run reads and writes
# nothing outside it. The first run in a checkout compiles the standard
# library too (about 20 s on two cores); later runs find the build
# up to date and only pay the check.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "run.sh: run from the root of a checkout of the repo (no go.mod and benchmark/ in $PWD)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
go build -o "$build/diffserve-bench" ./benchmark
exec "$build/diffserve-bench" "$@"
