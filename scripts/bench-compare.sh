#!/bin/sh
# bench-compare: run the benchmark suite into a dated BENCH_<date>.json and
# diff it against the latest *committed* BENCH_*.json with cmd/benchcmp,
# failing on >20% ns/op regressions in the /opt fast paths, in one-pass
# pricing (BenchmarkPrice, which has no reference twin), and in the
# run-form commit and the state clone, which must stay O(words) (/runs and
# BenchmarkCloneIntrepid), and in the backlog scheduling pass
# (BenchmarkPassBacklog).
#
# Usage: sh scripts/bench-compare.sh [output.json]
#        sh scripts/bench-compare.sh -selftest   (checks the baseline pick)
# Env:   BENCHTIME (default 1s) — forwarded to `go test -benchtime`.
#        BENCHCOUNT (default 3) — repetitions; benchcmp keeps the fastest,
#        which shrugs off noisy-neighbor load on shared boxes.
set -eu

GO=${GO:-go}
BENCHTIME=${BENCHTIME:-1s}
BENCHCOUNT=${BENCHCOUNT:-3}
BENCH_PKGS="./internal/collective ./internal/core ./internal/costmodel ./internal/sim ./internal/cluster ./internal/sweep ./internal/daemon ./internal/sched"
BENCH_RE='BenchmarkSelect|BenchmarkPlaceIntrepid|BenchmarkPrice|BenchmarkScheduleBlocks|BenchmarkRunContinuous$|BenchmarkAllocateRelease|BenchmarkCloneIntrepid|BenchmarkSweepGrid|BenchmarkDaemonSubmitThroughput|BenchmarkPassBacklog'

# newest prints, of the artifacts named, the one recorded last: by the Time
# of its first record (`go test -json` stamps every event, RFC 3339, and the
# artifacts are recorded in UTC, so the stamps sort as text). The names do
# not say: a day's second and third runs are BENCH_<date>.1.json and .2.json,
# and both sort before the first run's BENCH_<date>.json.
newest() {
    for f in "$@"; do
        printf '%s %s\n' "$(head -n 1 "$f" | sed -n 's/.*"Time":"\([^"]*\)".*/\1/p')" "$f"
    done | sort | tail -1 | cut -d' ' -f2-
}

if [ "${1:-}" = "-selftest" ]; then
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
    for run in .:02:22 .1.:04:45 .2.:07:41; do
        printf '{"Time":"2026-10-01T%s:48.7Z","Action":"start"}\n' "${run#*:}" > "$dir/BENCH_2026-10-01${run%%:*}json"
    done
    got=$(newest "$dir"/BENCH_*.json)
    if [ "$got" != "$dir/BENCH_2026-10-01.2.json" ]; then
        echo "bench-compare: selftest: baseline pick is ${got##*/}, want BENCH_2026-10-01.2.json (recorded last)" >&2
        exit 1
    fi
    echo "bench-compare: selftest ok (baseline is the artifact recorded last)"
    exit 0
fi

# Baseline: the committed artifact recorded last.
base=$(newest $(git ls-files 'BENCH_*.json'))

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
$GO run ./cmd/benchcmp -gate /opt,BenchmarkPrice/,BenchmarkAllocateReleaseIntrepid/runs,BenchmarkCloneIntrepid,BenchmarkPassBacklog "$base" "$out"
