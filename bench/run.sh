#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload micro_ctree --seed 1 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build/
# at the checkout root; nothing is fetched from the network. Build output
# goes to standard error, so standard output carries only the benchmark's.
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/pmtest-bench" .) >&2
exec "$build/pmtest-bench" "$@"
