#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout: bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
# Everything the Go toolchain writes (build cache, work directory, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a tsplit checkout (no go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/tsplit-bench" ./bench
exec "$build/tsplit-bench" "$@"
