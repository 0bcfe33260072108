#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload steer --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL directories, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The Go command keeps its caches and its local telemetry under these.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
