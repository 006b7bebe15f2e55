# Standard verify loop for the repository. `make check` is what CI (and
# every PR) should run: formatting (with simplification), vet, the
# repository's own scip-vet analyzers, build, tests, the race detector
# over the concurrent experiment engine and sharded front, and the data
# plane under the scipdebug handle guards.

GO ?= go

# Build-tag configurations to vet beyond the default build. scipdebug
# compiles the arena's per-dereference handle guards in (see
# internal/cache/arena_guard_on.go); every configuration added later
# must be listed here so `make vet` covers it.
VET_TAGS ?= scipdebug

.PHONY: check fmt-check vet lint supps build test test-race test-debug examples docs-check golden-equiv fuzz bench bench-kernels bench-figures load

check: fmt-check vet lint build test test-race test-debug examples docs-check golden-equiv

# gofmt -s also demands the simplified forms (composite-literal elision,
# range cleanups), not just canonical spacing.
fmt-check:
	@out=$$(gofmt -s -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

# vet covers both modules, the root and benchmark/, plain and under every
# VET_TAGS entry. Its copylocks check is what rejects by-value copies of
# the padded stats blocks, the shard slots and anything else holding sync
# or sync/atomic state (DESIGN.md §7 "Concurrency").
vet:
	@for dir in . benchmark; do \
		for tags in "" $(VET_TAGS); do \
			echo "vet -C $$dir -tags '$$tags'"; \
			$(GO) vet -C $$dir -tags "$$tags" ./... || exit 1; \
		done; \
	done

# lint runs the repository's own determinism analyzers (see
# internal/analysis and DESIGN.md "Invariants"): the per-file detrand
# and maporder, ending with the suppression audit — a stale or unknown //scip: comment fails the run.
# Two invariants are pinned by tests, not by an analyzer: lock
# discipline by test-race, and the data plane's zero allocation by
# TestHotPathsAllocateNothing and the per-package Allocs pins.
lint:
	$(GO) run ./cmd/scip-vet ./...

# supps prints the //scip: suppression inventory
# (file:line, token, live/STALE, justification) and exits 1 when any
# suppression is stale.
supps:
	$(GO) run ./cmd/scip-vet -supps ./...

build:
	$(GO) build ./...

# -shuffle=on randomises test order within each package, so a test that
# leans on state another test left behind fails here instead of hiding.
test:
	$(GO) test -shuffle=on ./...

# test-race also carries lock discipline: the shard, server and cluster
# race tests drive every mutex-guarded structure concurrently, so a
# dropped Lock fails here (DESIGN.md §7).
test-race:
	$(GO) test -race ./...

# test-debug runs the data-plane packages with the scipdebug handle guards
# compiled in (every Arena.At checks range and liveness), plus the figure
# goldens, so the guards run on real replays rather than only being vetted.
# internal/registry brings TestSameEnvSameHitStream, which drives every
# registered policy through the guards.
test-debug:
	$(GO) test -tags scipdebug ./internal/cache ./internal/core ./internal/shard ./internal/policies ./internal/replacement ./internal/admission/... ./internal/registry ./internal/tdc ./internal/zro
	$(GO) test -tags scipdebug -run '^TestGolden$$' ./internal/exp

# examples builds the five runnable programs under examples/ and runs
# the Example* godoc functions (facade, internal/stats and
# internal/cluster): their // Output: blocks are the executable half of
# the documentation and must stay green.
examples:
	$(GO) build ./examples/...
	$(GO) test -run Example . ./internal/stats/ ./internal/cluster/

# docs-check fails on broken intra-repo markdown links and on internal/
# packages missing a package comment (both in docs_test.go).
docs-check:
	$(GO) test -run 'TestDocsLinks|TestPackageDocs' .

# golden-equiv replays the goldened figures with every SCIP construction
# swapped for a zro-only scorer pipeline (internal/admission/scorer) and
# asserts byte-identity against the committed goldens: the decomposed
# admission pipeline must reproduce the monolith exactly. Runs as part
# of `make test` too (it is an ordinary test); the named target gives CI
# and humans a direct handle on the equivalence contract.
golden-equiv:
	$(GO) test ./internal/exp/ -run TestScorerGoldenEquivalence -count 1

# Short fuzz passes over all nine Fuzz* targets: the analysis
# fixture-comment parser, VetModule (arbitrary parseable source must
# never panic the analyzers or the suppression audit), scip-serve's query
# scanner (diffed against url.ParseQuery), the cache's open-addressing
# index (diffed against a plain map) and ghost history (structural
# invariants after every operation), the three trace readers (CSV,
# binary, LRB: corrupt input must never panic them), and the workload
# generator (any config Validate accepts must generate a well-formed
# trace).
fuzz:
	$(GO) test ./internal/analysis/ -run '^$$' -fuzz '^FuzzParseWant$$' -fuzztime 30s
	$(GO) test ./internal/analysis/ -run '^$$' -fuzz '^FuzzVetModule$$' -fuzztime 30s
	$(GO) test ./internal/server/ -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime 30s
	$(GO) test ./internal/cache/ -run '^$$' -fuzz '^FuzzIndexVsMap$$' -fuzztime 10s
	$(GO) test ./internal/cache/ -run '^$$' -fuzz '^FuzzHistory$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadLRB$$' -fuzztime 10s
	$(GO) test ./internal/gen/ -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime 10s

# Hot-path and per-figure micro benchmarks at reduced scale.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The ML-kernel trio behind the flat-matrix hot path: GBM training, the
# trained LRB access path, and single-tree prediction. BENCHTIME=5x (the
# CI setting) keeps it to a smoke run; raise it locally for stable
# numbers, e.g. `make bench-kernels BENCHTIME=2s`.
BENCHTIME ?= 1s
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkGBMFit|BenchmarkLRBAccessTrained|BenchmarkTreePredict' \
		-benchtime $(BENCHTIME) -benchmem .

# Full figure regeneration with per-figure timings in BENCH.json (the
# file's only writer). Throughput, latency, memory and per-layer cost are
# measured by the repository benchmark instead: `bash benchmark/run.sh`.
bench-figures:
	$(GO) run ./cmd/scip-bench -scale 0.01 -seeds 2 -json BENCH.json all

# The two replay-invariance fences under the race detector: every policy,
# worker count, shard mode, batch size and actor depth replayed through
# runner.ReplaySharded must leave byte-identical per-shard counters.
load:
	$(GO) test -race -count=1 -run '^(TestModeInvariance|TestWorkerCountInvariance)$$' ./internal/runner
