#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload small-pull --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, the grids' data) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
