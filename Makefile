# Standard verify loop for the repository. `make check` is what CI (and
# every PR) should run: formatting (with simplification), vet, the
# repository's own scip-vet analyzers, build, tests, and the race
# detector over the concurrent experiment engine and sharded front.

GO ?= go

# Build-tag configurations to vet beyond the default build. scipdebug
# compiles the arena's per-dereference handle guards in (see
# internal/cache/arena_guard_on.go); every configuration added later
# must be listed here so `make vet` covers it.
VET_TAGS ?= scipdebug

.PHONY: check fmt-check vet lint supps build test test-race examples docs-check golden-equiv fuzz bench bench-kernels bench-figures bench-scale bench-gc bench-cluster bench-check load

check: fmt-check vet lint build test test-race examples docs-check golden-equiv

# gofmt -s also demands the simplified forms (composite-literal elision,
# range cleanups), not just canonical spacing.
fmt-check:
	@out=$$(gofmt -s -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	@for tags in $(VET_TAGS); do \
		echo "vet -tags $$tags"; \
		$(GO) vet -tags "$$tags" ./... || exit 1; \
	done

# lint runs the repository's own determinism/concurrency/allocation
# analyzers (see internal/analysis and DESIGN.md "Invariants"): the
# per-file syntactic checks plus the interprocedural hotalloc,
# clocktaint and guardedby passes, ending with the suppression audit — a
# stale or unknown //scip: comment fails the run.
lint:
	$(GO) run ./cmd/scip-vet ./...

# supps prints the //scip: suppression-and-annotation inventory
# (file:line, token, live/STALE, justification) and exits 1 when any
# suppression is stale.
supps:
	$(GO) run ./cmd/scip-vet -supps ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# examples builds the five runnable programs under examples/ and runs
# the Example* godoc functions (facade, internal/stats and
# internal/cluster): their // Output: blocks are the executable half of
# the documentation and must stay green.
examples:
	$(GO) build ./examples/...
	$(GO) test -run Example . ./internal/stats/ ./internal/cluster/

# docs-check fails on broken intra-repo markdown links (docs_test.go) and
# on internal/ packages missing a package comment (the scip-vet pkgdoc
# analyzer, scoped here to internal/... for a fast signal; `make lint`
# runs the full analyzer set).
docs-check:
	$(GO) test -run TestDocsLinks .
	$(GO) run ./cmd/scip-vet ./internal/...

# golden-equiv replays the goldened figures with every SCIP construction
# swapped for a zro-only scorer pipeline (internal/admission/scorer) and
# asserts byte-identity against the committed goldens: the decomposed
# admission pipeline must reproduce the monolith exactly. Runs as part
# of `make test` too (it is an ordinary test); the named target gives CI
# and humans a direct handle on the equivalence contract.
golden-equiv:
	$(GO) test ./internal/exp/ -run TestScorerGoldenEquivalence -count 1

# Short fuzz passes over the analysis fixture-comment parser and the
# interprocedural call-graph builder (arbitrary parseable source must
# never panic the module indexer or the flow analyzers).
fuzz:
	$(GO) test ./internal/analysis/ -run '^$$' -fuzz FuzzParseWant -fuzztime 30s
	$(GO) test ./internal/analysis/ -run '^$$' -fuzz FuzzCallGraph -fuzztime 30s

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

# Full figure regeneration with per-figure timings in BENCH.json.
# scip-bench merges into the file, so the scale_matrix section written by
# bench-scale survives a figure rerun (and vice versa).
bench-figures:
	$(GO) run ./cmd/scip-bench -scale 0.01 -seeds 2 -json BENCH.json all

# The workers x GOMAXPROCS x concurrency-mode throughput matrix
# (EXPERIMENTS.md "Scaling"): one replay per (gomaxprocs, workers,
# mutex/batched/actor) cell, cross-checked for identical miss ratios and
# merged into BENCH.json as scale_matrix. SCALE=0.002 keeps the default
# run short; raise it for stable numbers, e.g. `make bench-scale
# SCALE=0.01`.
SCALE ?= 0.002
BENCHJSON ?= BENCH.json
bench-scale:
	$(GO) run ./cmd/scip-load -scale $(SCALE) -shards 8 -batch 64 -scalebench $(BENCHJSON)

# GC-pressure matrix (DESIGN.md §12): fills the cache to each working-set
# size, measures the scannable-heap bytes the resident set adds (~0 with
# the pointer-free core) and the pause cost of churn, cross-checks miss
# ratios across concurrency modes and merges the cells into BENCH.json as
# gc_matrix. GCOBJECTS=50000 keeps the default a CI smoke run; the
# committed artefact uses the paper-faithful 1M-object working set
# (`make bench-gc GCOBJECTS=1000000 SCALE=0.01`).
GCOBJECTS ?= 50000
bench-gc:
	$(GO) run ./cmd/scip-load -scale $(SCALE) -shards 8 -gcobjects $(GCOBJECTS) -gcbench $(BENCHJSON)

# Cluster equivalence smoke (CLUSTER.md): spins an in-process 3-node
# fleet on loopback with a scip-route router in front, replays a tiny
# CDN-T trace through the router from concurrent clients, cross-checks
# every node's shard counters byte-for-byte against a single-node replay
# of its ring partition, and merges the router-overhead cells into
# BENCH.json as cluster_matrix. SCALE=0.002 keeps it a CI smoke run.
bench-cluster:
	$(GO) run ./cmd/scip-route -clusterbench $(BENCHJSON) -scale $(SCALE) -shards 4 -bench-nodes 3

# Benchmark-regression guard: reruns the replay hot path and fails if
# ns/op regresses more than 20% against the committed baseline in
# BENCH.json (replay_hot_path.lru_ns_per_op_after). Best-of-3 damps
# scheduler noise; a genuine data-plane regression still trips it.
bench-check:
	@base=$$(sed -n 's/.*"lru_ns_per_op_after": *\([0-9.]*\).*/\1/p' $(BENCHJSON)); \
	if [ -z "$$base" ]; then echo "bench-check: no replay_hot_path baseline in $(BENCHJSON)"; exit 1; fi; \
	best=$$($(GO) test -run '^$$' -bench 'BenchmarkReplayHotPathLRU$$' -benchtime 1s -count 3 . \
		| awk '/BenchmarkReplayHotPathLRU/ {if (best == "" || $$3 < best) best = $$3} END {print best}'); \
	if [ -z "$$best" ]; then echo "bench-check: benchmark produced no result"; exit 1; fi; \
	echo "bench-check: best $$best ns/op vs baseline $$base ns/op (limit +20%)"; \
	awk -v b="$$best" -v base="$$base" 'BEGIN { exit !(b <= base * 1.2) }' || \
		{ echo "bench-check: BenchmarkReplayHotPathLRU regressed >20%"; exit 1; }

# Concurrent load run with the race detector enabled: replays a synthetic
# CDN-T trace across GOMAXPROCS workers against the sharded SCIP front,
# printing live snapshots and writing LOAD.json.
load:
	$(GO) run -race ./cmd/scip-load -scale 0.01 -shards 8 -repeat 2 -interval 1s -json LOAD.json
