#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout:
#
#	bash benchmark/run.sh --workload query-plain --seed 1 --seconds 18 --trace 0
#
# Everything the build leaves behind — Go's build cache, its temporary files,
# its telemetry counters — and everything a run writes stays under
# .bench_build/ in the checkout. Nothing is fetched: the benchmark needs the
# standard library and this repository's own packages only.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
		go build -o "$build/benchmark" .
)
cd "$root"
exec "$build/benchmark" "$@"
