#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout, then runs it with the driver's arguments
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the checkout, which .gitignore names. Run it from
# the repository root. Without the repository's go.mod the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod

go build -o "$build/bench" ./bench >&2
exec "$build/bench" "$@"
