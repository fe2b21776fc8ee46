#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is BENCHMARK.json's
# command: every byte the build and the run write (Go build cache, temporary
# files, the binary, scratch stores) lands under .bench_build/ or bench/out/
# in the checkout it was started from.
#
#   bash bench/run.sh --workload serve-read-mix --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local

go build -o "$out/graphbench" ./bench
exec "$out/graphbench" "$@"
