#!/usr/bin/env bash
# Build the benchmark from source and run it with the given flags.
#
#   bash benchmark/run.sh                      all seven workloads, end to end
#   bash benchmark/run.sh -trace 1             ... followed by the traced per-layer runs
#   bash benchmark/run.sh -workload deep_z -seed 7 -seconds 10 -trace 0
#   bash benchmark/run.sh -compare A.json B.json
#
# Everything the Go toolchain writes (build cache, temp files, the
# binary) stays under .bench_build/ in the checkout; results and traces
# land in benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/wsebench" .
exec "$build/wsebench" "$@"
