GO ?= go
FUZZTIME ?= 15s

.PHONY: check build vet lint lint-allow test race fuzz-smoke fuzz-parsers mutants verify bench bench-smoke bench-compare bench-selftest bench-e2e coverage

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

# The native fuzz targets, as package:Target under internal/: schedule
# blocks (detect then expand), allocators, placement commit vs the
# node-by-node reference, the differential harness, fault traces, layout
# scale parity, wide placement pricing parity, the anneal contract, pending
# queue ops vs a naive splice model, daemon ops vs a queue model, wire
# frames, the one-pass backfill audit vs the per-instant rescan, and the
# node-name table vs Compress.
FUZZ_TARGETS = collective:FuzzCompactExpand core:FuzzAllocate \
	cluster:FuzzPlacementAllocate verify:FuzzRunContinuous \
	verify:FuzzFaultTrace verify:FuzzLayoutScale \
	costmodel:FuzzWidePlacementPricing search:FuzzAnnealMoves \
	sched:FuzzQueueOps daemon:FuzzDispatch daemon:FuzzReadFrame \
	sim:FuzzBackfillAudit hostlist:FuzzTableCompress
# The parsers of outside input: host lists, topology.conf and SWF logs.
# They run as seed corpora under `make test`; only the nightly CI job
# fuzzes them.
FUZZ_PARSERS = hostlist:FuzzExpand topology:FuzzParseConfig swf:FuzzRead

# fuzz runs each package:Target of $(1) for FUZZTIME, stopping at the first
# failure.
define fuzz
	@set -e; for t in $(1); do \
		echo "fuzz ./internal/$${t%%:*} $${t#*:} ($(FUZZTIME))"; \
		$(GO) test ./internal/$${t%%:*} -run $${t#*:} -fuzz $${t#*:} -fuzztime $(FUZZTIME); \
	done
endef

# Short fuzz runs of FUZZ_TARGETS; CI smoke, not a soak. The scheduled CI
# fuzz job runs this and fuzz-parsers at FUZZTIME=5m.
fuzz-smoke:
	$(call fuzz,$(FUZZ_TARGETS))

fuzz-parsers:
	$(call fuzz,$(FUZZ_PARSERS))

# Mutation gate: every entry of scripts/mutants.txt, applied alone to a
# throwaway copy, must fail `go test ./...` or `cawsverify -seeds 50`
# (about a minute each; nightly in CI, not per push).
# `sh scripts/mutants.sh -check` only checks that every entry still applies.
mutants:
	GO=$(GO) sh scripts/mutants.sh

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
# BENCH_PKGS and BENCH_RE are the recorded set, for bench and for
# bench-compare (scripts/bench-compare.sh reads them from the environment).
BENCHTIME ?= 1s
BENCH_PKGS = ./internal/collective ./internal/core ./internal/costmodel ./internal/sim ./internal/cluster ./internal/sweep ./internal/daemon ./internal/sched ./internal/topology
BENCH_RE = BenchmarkSelect|BenchmarkPlaceIntrepid|BenchmarkPrice|BenchmarkScheduleBlocks|BenchmarkRunContinuous$$|BenchmarkAllocateRelease|BenchmarkCloneIntrepid|BenchmarkSweepGrid|BenchmarkDaemonSubmitThroughput|BenchmarkPassBacklog|BenchmarkValidateResultConfig|BenchmarkGenerate
# -p 1 keeps package test binaries sequential: concurrently running
# packages contaminate each other's timings.
bench:
	$(GO) test -p 1 -run '^$$' -bench '$(BENCH_RE)' \
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
	BENCHTIME=$(BENCHTIME) BENCH_PKGS='$(BENCH_PKGS)' BENCH_RE='$(BENCH_RE)' sh scripts/bench-compare.sh $(BENCH_OUT)

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
