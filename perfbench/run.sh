#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload suite|reduce|serve --seed N --seconds S --trace 0|1
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binary, run records) stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export XDG_CONFIG_HOME="$out/config" # keeps the go command's telemetry files here
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
