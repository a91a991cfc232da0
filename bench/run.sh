#!/usr/bin/env bash
# Builds the benchmark from this checkout into .bench_build, then runs
# it with the given flags:
#
#   bash bench/run.sh --workload archive-sweep --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Every file the build writes stays
# under .bench_build; nothing is downloaded.
set -euo pipefail

out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache"
export GOPATH="$PWD/$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The benchmark runs with two procs and the default GC target.
export GOMAXPROCS=2 GOGC=100

(cd bench && go build -o "../$out/bench" .)
exec "$out/bench" "$@"
