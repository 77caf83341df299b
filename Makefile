GO ?= go
FUZZTIME ?= 15s

.PHONY: check build vet lint lint-allow test race fuzz-smoke verify bench bench-smoke bench-compare bench-selftest bench-e2e coverage

check: vet lint build race fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static invariants (DESIGN.md §8): the cawslint suite over the whole
# tree, the //caws:noalloc escape gate, gofmt, then the pinned external
# linters (skipped gracefully offline). Any diagnostic fails the build;
# suppress false positives in place with an explained
# `//lint:allow <analyzer> <reason>`.
lint:
	$(GO) run ./cmd/cawslint ./...
	sh scripts/gofmt-check.sh
	sh scripts/noalloc-check.sh
	sh scripts/lint-extra.sh

# Inventory of every active //lint:allow escape hatch with its reason —
# the review checklist for suppression audits — failing when there are more
# than scripts/suppression-ceiling.txt allows.
lint-allow:
	sh scripts/suppression-check.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz runs of the native fuzz targets; CI smoke, not a soak. The
# scheduled CI fuzz job runs the same eleven targets at FUZZTIME=5m.
# (internal/verify keeps a FuzzSubtreeAggregation of the same inputs that
# runs them through the differential harness; costmodel's is the cheaper
# one, so it is the one fuzzed.)
fuzz-smoke:
	$(GO) test ./internal/collective -run FuzzCompactExpand -fuzz FuzzCompactExpand -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run FuzzAllocate -fuzz FuzzAllocate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run FuzzPlacementAllocate -fuzz FuzzPlacementAllocate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run FuzzRunContinuous -fuzz FuzzRunContinuous -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run FuzzFaultTrace -fuzz FuzzFaultTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run FuzzLayoutScale -fuzz FuzzLayoutScale -fuzztime $(FUZZTIME)
	$(GO) test ./internal/costmodel -run FuzzSubtreeAggregation -fuzz FuzzSubtreeAggregation -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search -run FuzzAnnealMoves -fuzz FuzzAnnealMoves -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sched -run FuzzQueueOps -fuzz FuzzQueueOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/daemon -run FuzzDispatch -fuzz FuzzDispatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/daemon -run FuzzReadFrame -fuzz FuzzReadFrame -fuzztime $(FUZZTIME)

# Statement-coverage gate: fails when total coverage over ./internal/...
# drops below the floor in scripts/coverage-floor.txt.
coverage:
	sh scripts/coverage-check.sh

# Longer differential sweep (override SEEDS for overnight soaks).
SEEDS ?= 500
verify:
	$(GO) run ./cmd/cawsverify -seeds $(SEEDS)

# Fast-path micro-benchmarks with their opt/ref speedup pairs, recorded as
# a dated JSON artifact (BENCH_<date>.json, committed for the perf PRs).
BENCHTIME ?= 1s
BENCH_PKGS = ./internal/collective ./internal/core ./internal/costmodel ./internal/sim ./internal/cluster ./internal/sweep ./internal/daemon ./internal/sched
# -p 1 keeps package test binaries sequential: concurrently running
# packages contaminate each other's timings.
bench:
	$(GO) test -p 1 -run '^$$' -bench 'BenchmarkSelect|BenchmarkPlaceIntrepid|BenchmarkPrice|BenchmarkScheduleBlocks|BenchmarkRunContinuous$$|BenchmarkAllocateRelease|BenchmarkCloneIntrepid|BenchmarkSweepGrid|BenchmarkDaemonSubmitThroughput|BenchmarkPassBacklog' \
		-benchtime $(BENCHTIME) -benchmem -json $(BENCH_PKGS) > BENCH_$$(date +%F).json
	@echo "wrote BENCH_$$(date +%F).json"

# One iteration per benchmark: proves they still compile and run (CI),
# BenchmarkJobCost, BenchmarkJobCost512Leaves and
# BenchmarkJobCost4096LeavesWide included, which the recorded set above
# leaves out: they re-price one unchanged state in a loop, a shape no caller
# has, and their layer's end-to-end rows are bench/'s
# costmodel.price_{cold,warm}_us_per_job.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# Record a fresh dated artifact and diff it against the latest committed
# BENCH_*.json (latest by the time its first record carries, not by name)
# via cmd/benchcmp; >20% ns/op regression on an /opt path, a
# BenchmarkPrice case or another gated name fails. Override the output
# name with BENCH_OUT=..., duration with BENCHTIME=....
bench-compare:
	BENCHTIME=$(BENCHTIME) sh scripts/bench-compare.sh $(BENCH_OUT)

# The end-to-end benchmark (bench/, its own module; BENCHMARK.json is its
# contract): its own vet + tests, and one full run of all six workloads,
# untraced then traced (~6 min; see bench/README.md for -workload, -out
# and -compare). The self-test also holds bench-compare to its baseline
# pick: three artifacts of one day, where the name order is not the time
# order.
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	sh scripts/bench-compare.sh -selftest

bench-e2e:
	bash bench/run.sh
