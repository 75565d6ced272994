#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, e.g.
#
#   bash perfbench/run.sh --workload wordcount --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, spill files and
# the span dumps of traced runs.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0 \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go build -C perfbench -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" "$@"
