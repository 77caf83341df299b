#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: `bash bench/run.sh --workload replay_theta`.
# Everything the build writes (binary, Go build cache) stays in .bench_build/
# inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$build/cawsbench" . >&2
exec "$build/cawsbench" "$@"
