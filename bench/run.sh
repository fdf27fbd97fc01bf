#!/usr/bin/env bash
# Builds the benchmark into .bench_build and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay under .bench_build, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=

go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
