#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see README.md). Run from the root of the checkout:
#
#   bash repobench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under the checkout:
# binaries, the Go build cache and the run's scratch stores all live in
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd "$root/repobench" && go build -o "$out/repobench" .)
exec "$out/repobench" -workdir "$out" "$@"
