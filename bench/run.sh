#!/usr/bin/env bash
# Launcher for the acceptance driver: builds the benchmark from source into
# .bench_build/ (Go's build cache, module cache and temp files included, so
# nothing is read or written outside the checkout) and runs it with the
# arguments given. From the root of a checkout:
#
#   bash bench/run.sh --workload stream --seed 3 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
