# Tier-1 gates for the LaMoFinder reproduction. CI (.github/workflows/ci.yml)
# runs `make ci`; the individual targets exist for local iteration.

GO ?= go

# RACEPKGS are the concurrency-bearing packages: the par worker pool, the
# sharded similarity cache and parallel labeler (internal/label), the
# heap agglomerator driven by batch-parallel rows (internal/cluster), the
# chunked enumeration / per-network uniqueness fan-outs (internal/motif)
# on top of the randnet generators and the graph, ontology and directed-
# motif packages they share, the serving stack (request handlers over one
# atomically swapped model, pooled scratch buffers and atomic counters)
# plus the artifact codec and parallel index build it loads, the fleet
# router (membership probes, hedged requests, rolling rollout against
# live replicas), the observability layer (lock-free histograms, the
# access-log ring and its drain goroutine), the analysis engine (parallel
# per-package rule execution over shared engine state), and the
# bulk-query engine (chunk-parallel scans writing index-addressed output
# slots and shared bitsets). CI runs this list through `make race`.
RACEPKGS = ./internal/par/... ./internal/label/... ./internal/cluster/... \
	./internal/motif/... ./internal/graph/... ./internal/ontology/... \
	./internal/dimotif/... ./internal/randnet/... \
	./internal/serve/... ./internal/fleet/... ./internal/artifact/... \
	./internal/obs/... ./internal/analysis/... ./internal/query/...

.PHONY: all build vet govet lamovet vet-json lint test race alloc alloc-build fuzz bench-module bench-smoke bench-json serve-smoke load-smoke fleet-smoke query-smoke trace-smoke ci

# The dated trajectory snapshot bench-json writes (and lamoload merges into).
BENCHFILE ?= BENCH_$(shell date +%Y-%m-%d).json

all: ci

build:
	$(GO) build ./...

# vet runs both the stock toolchain vet and the full 11-rule lamovet
# suite (seven per-package rules plus the interprocedural taintdet,
# lockorder, goroleak, and allocbudget).
vet: govet lamovet

govet:
	$(GO) vet ./...

# lamovet is the project-specific analyzer suite guarding the determinism
# contract (see DESIGN.md "Static analysis gates" and "Interprocedural
# analysis"). It is stdlib-only and self-hosted: the repo must pass its
# own linter.
lamovet:
	$(GO) run ./cmd/lamovet ./...

# vet-json emits the full suite's findings as a JSON array (empty when the
# repo is clean) — the machine-readable artifact CI uploads.
LAMOVET_JSON ?= lamovet.json
vet-json:
	$(GO) run ./cmd/lamovet -json ./... > $(LAMOVET_JSON) || (cat $(LAMOVET_JSON); exit 1)
	@echo "wrote $(LAMOVET_JSON)"

lint: vet

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACEPKGS)

# alloc is the allocation-budget gate: the indexed predict handler must
# stay 0 allocs/op bare AND with the full observability layer on (trace
# echo, per-route histograms, access logging through the ring).
alloc:
	$(GO) test -run 'TestInstrumentedPredictAllocs|TestPredictHotPathAllocs' -v ./internal/serve

# alloc-build is the build-side counterpart: the beam-miner benchmarks must
# stay within the checked-in allocs/op and bytes/op ceilings in
# ALLOC_BUDGET.json, so the mining hot path's CSR/bitset/arena memory
# layout (DESIGN.md §13) cannot silently regress back to per-subgraph maps;
# one uniqueness-matcher count on a built per-network view, and one
# occurrence-similarity (SO) evaluation on a warmed Sim on both symmetry
# paths, must hold exactly 0 allocs.
alloc-build:
	$(GO) test -run TestMinerBeamAllocBudget -v .
	$(GO) test -run TestMatcherCountAllocs -v ./internal/graph
	$(GO) test -run TestOccurrenceAllocs -v ./internal/label

# fuzz mutates artifact payloads through artifact.Decode for 20 s,
# starting from the committed seed corpus
# (internal/artifact/testdata/fuzz/FuzzDecode): no input may panic, and
# any accepted one must re-encode to a stable byte form.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 20s ./internal/artifact

# bench-module vets and tests the benchmark's own Go module (bench/), which
# the root ./... patterns never reach although it calls the pipeline's
# packages directly. -short skips its end-to-end smoke run and its lamovet
# pass.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# bench-smoke compiles and executes every benchmark exactly once — a CI
# guard against benchmark rot, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# bench-json records a dated benchmark trajectory point (BENCH_<date>.json)
# for the before/after record in EXPERIMENTS.md: every package's
# microbenchmarks via cmd/benchjson, then serve latency percentiles merged
# in by a fixed-seed cmd/lamoload run against a live daemon.
bench-json:
	$(GO) run ./cmd/benchjson -time 3x -pkg ./... -out $(BENCHFILE)
	LAMOLOAD_MERGE_INTO=$(BENCHFILE) ./scripts/lamoload_smoke.sh

# serve-smoke exercises the daemon end to end: lamod build, lamod serve,
# lamoctl health/predict/metrics, SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# load-smoke exercises the serve hot path end to end: indexed build,
# fixed-seed lamoload in both loop modes, index-hit metrics, and the
# 0 allocs/op budget on the predict handler.
load-smoke:
	./scripts/lamoload_smoke.sh

# fleet-smoke exercises lamogate end to end: three reloadable replicas
# behind a gateway, health-gated routing under a lamoctl-driven load
# loop, a rolling rollout to a rebuilt artifact with zero failed
# requests, byte-identical served responses before and after, and a
# clean mixed-digest gauge once the fleet is uniform again.
fleet-smoke:
	./scripts/fleet_smoke.sh

# query-smoke exercises the bulk-query engine end to end: three canned
# plans through lamoctl query, row-count and known-score assertions,
# byte-identical offline (lamod query) vs served output, and the
# flag-built-plan / plan-file equivalence.
query-smoke:
	./scripts/query_smoke.sh

# trace-smoke exercises the span-tracing layer end to end: a traced
# predict's parse/rank/encode tree via lamoctl trace (JSON + -table),
# byte-deterministic query output alongside the -explain operator table,
# a trace-ID exemplar on /metrics, and one merged gateway+replica trace
# for a traced request through a 3-replica fleet.
trace-smoke:
	./scripts/trace_smoke.sh

ci: build lint test race alloc alloc-build fuzz bench-module bench-smoke serve-smoke load-smoke fleet-smoke query-smoke trace-smoke
