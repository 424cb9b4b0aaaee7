#!/usr/bin/env bash
# Builds the benchmark from the tree it is started in and runs it with
# the arguments given:
#
#   bash benchmark/run.sh --workload serve_reads --seed 1 --seconds 15 --trace 0
#
# Every file this writes lands inside the checkout: the Go build cache,
# the benchmark binary and the programs under test in .bench_build/, the
# reports in benchmark/out/. The first run in a checkout compiles the
# standard library into that cache (about a minute); later runs reuse it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/hadfl-serve" ]; then
	echo "benchmark/run.sh: run it from the root of the hadfl repository" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local

go build -C "$root/benchmark" -o "$build/bin/hadfl-benchmark" .
exec "$build/bin/hadfl-benchmark" "$@"
