#!/bin/sh
# bench-compare: run the benchmark suite into a dated BENCH_<date>.json and
# diff it against the latest *committed* BENCH_*.json with cmd/benchcmp,
# failing on >20% ns/op regressions in the /opt fast paths, in the cold
# schedule compile (BenchmarkCompile, which has no reference twin), and in the
# run-form commit and the state clone, which must stay O(words) (/runs and
# BenchmarkCloneIntrepid).
#
# Usage: sh scripts/bench-compare.sh [output.json]
# Env:   BENCHTIME (default 1s) — forwarded to `go test -benchtime`.
#        BENCHCOUNT (default 3) — repetitions; benchcmp keeps the fastest,
#        which shrugs off noisy-neighbor load on shared boxes.
set -eu

GO=${GO:-go}
BENCHTIME=${BENCHTIME:-1s}
BENCHCOUNT=${BENCHCOUNT:-3}
BENCH_PKGS="./internal/collective ./internal/core ./internal/costmodel ./internal/sim ./internal/cluster ./internal/sweep ./internal/daemon"
BENCH_RE='BenchmarkSelect|BenchmarkPlaceIntrepid|BenchmarkJobCost$|BenchmarkCompile|BenchmarkScheduleBlocks|BenchmarkRunContinuous$|BenchmarkAllocateRelease|BenchmarkCloneIntrepid|BenchmarkSweepGrid|BenchmarkDaemonSubmitThroughput'

# Baseline: the newest committed artifact (dated names sort chronologically).
base=$(git ls-files 'BENCH_*.json' | sort | tail -1)

out=${1:-}
if [ -z "$out" ]; then
    out="BENCH_$(date +%F).json"
    # Never clobber a committed artifact from the same day: suffix a run
    # counter so both the baseline and the new numbers survive review.
    n=1
    while git ls-files --error-unmatch "$out" >/dev/null 2>&1; do
        out="BENCH_$(date +%F).$n.json"
        n=$((n + 1))
    done
fi

echo "bench-compare: running benchmarks into $out (benchtime $BENCHTIME x$BENCHCOUNT)"
# -p 1: run the package test binaries sequentially — concurrent packages
# contaminate each other's timings (the multi-ms simulator benchmarks
# steal cores from the µs-scale selector benchmarks).
$GO test -p 1 -run '^$' -bench "$BENCH_RE" -benchtime "$BENCHTIME" -count "$BENCHCOUNT" -benchmem -json $BENCH_PKGS > "$out"

if [ -z "$base" ]; then
    echo "bench-compare: no committed BENCH_*.json baseline; wrote $out, nothing to compare"
    exit 0
fi
if [ "$base" = "$out" ]; then
    echo "bench-compare: baseline and output are both $out; refusing to self-compare" >&2
    exit 2
fi

echo "bench-compare: comparing against committed baseline $base"
$GO run ./cmd/benchcmp -gate /opt,BenchmarkCompile/,BenchmarkAllocateReleaseIntrepid/runs,BenchmarkCloneIntrepid "$base" "$out"
