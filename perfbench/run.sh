#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the given arguments. Run from the checkout root:
#
#	bash perfbench/run.sh --workload detect-batch --seed 1 --seconds 12 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
