#!/bin/sh
# Full verification in one command: gofmt, vet, diffvet, build, the
# darwin/arm64 cross-build, `make loc`, the tests, every race-detector
# leg with the poolpoison suite, and the allocator's full-size property
# sweep. The legs, their order and what each is for are listed once, in
# the Makefile's verify-all target.
set -e
cd "$(dirname "$0")/.."
exec make verify-all
