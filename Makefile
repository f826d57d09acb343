# Tier-1 gates for the LaMoFinder reproduction. `make ci` runs them all;
# CI (.github/workflows/ci.yml) runs each gate's target as its own step, so
# every gate's command is defined here once.

GO ?= go

# RACEPKGS are the concurrency-bearing packages: the par worker pool, the
# sharded similarity cache and parallel labeler (internal/label), the
# pooled similarity-table agglomerator driven by batch-parallel rows
# (internal/cluster), the chunked ESU enumeration, chunk-parallel level-wise
# miner and per-network uniqueness fan-outs (internal/motif)
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

.PHONY: all build fmt vet govet lamovet vet-json lint test race alloc alloc-build paper-golden results fuzz bench-module bench-smoke e2e ci

all: ci

build:
	$(GO) build ./...

# fmt fails if any Go file in the tree, bench/ and e2e/ included, is not
# gofmt-formatted.
fmt:
	@out=$$(gofmt -l .) && [ -z "$$out" ] || { echo "gofmt -l lists:"; echo "$$out"; exit 1; }

# vet runs both the stock toolchain vet and the full 12-rule lamovet
# suite (seven per-package rules plus the module-wide taintdet,
# lockorder, goroleak, allocbudget and unreached).
vet: govet lamovet

govet:
	$(GO) vet ./...

# lamovet is the project-specific analyzer suite guarding the determinism
# contract and the reachability of every function (see DESIGN.md "Static
# analysis gates" and "Interprocedural analysis"). It is stdlib-only and
# self-hosted: the repo must pass its own linter.
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

# paper-golden runs `lamod build` at the paper preset (1877 proteins) and
# fails unless it prints the pinned artifact digest and stage counts: the
# paper-scale twin of the quick-preset golden in tier-1
# (TestQuickBuildGolden). It then runs `experiments -run fig9` and fails
# unless every line but the timing line matches results_fig9.txt, so a
# change that moves one labeled motif or one Figure 9 cell fails here.
# About 35 s on 2 vCPUs.
PAPER_DIGEST = b15b70d42ebf328107dd41a2349372463fb7bbf667e11c968a9dd7b0dc4b2b60
PAPER_COUNTS = mined=254 unique=140 labeled=279
paper-golden:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/lamod" ./cmd/lamod; \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments; \
	"$$tmp/lamod" build -out "$$tmp/paper.lamoart" | tee "$$tmp/build.txt"; \
	grep -q "artifact $(PAPER_DIGEST) " "$$tmp/build.txt" && grep -q "$(PAPER_COUNTS)" "$$tmp/build.txt" || \
		{ echo "paper-golden: want artifact $(PAPER_DIGEST) and $(PAPER_COUNTS)"; exit 1; }; \
	"$$tmp/experiments" -run fig9 > "$$tmp/fig9.txt"; \
	diff -I '^\[fig9 completed in ' results_fig9.txt "$$tmp/fig9.txt" || \
		{ echo "paper-golden: experiments -run fig9 differs from results_fig9.txt"; exit 1; }

# results regenerates the committed paper-scale outputs. Figure 6 takes
# about 4 min on 2 vCPUs, Figures 7 and 9 seconds each.
results:
	$(GO) run ./cmd/experiments -run fig6 > results_fig6.txt
	$(GO) run ./cmd/experiments -run fig7 > results_fig7.txt
	$(GO) run ./cmd/experiments -run fig9 > results_fig9.txt

# fuzz mutates artifact payloads through artifact.Decode for 20 s,
# starting from the committed seed corpus
# (internal/artifact/testdata/fuzz/FuzzDecode): no input may panic, and
# any accepted one must re-encode to a stable byte form. It then runs
# FuzzPredictQuery for 10 s: the GET /v1/predict query scanner must read
# the proteins and the first k exactly as url.ParseQuery does. Then
# FuzzTraceContext for 10 s: an accepted X-Trace-Context must name a real
# span slot and a trace ID that is one clean path segment, and must
# survive a format/parse round trip. Then FuzzPlan for 10 s: a JSON query
# plan is either rejected with a named field or runs without a panic into
# JSON whose row_count counts its rows, byte-identical at parallelism 1
# and 4. Then FuzzParseOBO for 10 s: no OBO input may panic, and an
# accepted ontology indexes every term by its own ID and has no term among
# its own ancestors. Then FuzzLoadEdgeList for 10 s: no edge list may
# panic, and an accepted one gives each vertex one distinct name, has no
# self loop and keeps its edge set through a write/read round trip. Last,
# FuzzLoadAnnotations for 10 s: no annotation file may panic, and an
# accepted one covers every protein with no more annotations plus skipped
# rows than it has lines.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 20s ./internal/artifact
	$(GO) test -run '^$$' -fuzz '^FuzzPredictQuery$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzTraceContext$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime 10s ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzParseOBO$$' -fuzztime 10s ./internal/ontology
	$(GO) test -run '^$$' -fuzz '^FuzzLoadEdgeList$$' -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzLoadAnnotations$$' -fuzztime 10s ./internal/dataset

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

# e2e builds lamod, lamoctl, motiffind, gostats and the examples once and
# drives them as child processes: one daemon (health, predict, the
# /metrics exposition and the ratios lamoctl derives from it, SIGTERM
# drain), load in closed and open loop counted by /metrics, bulk queries
# served and offline, a rolling rollout through a gateway under load with
# its lamod_fleet_* ratios, span traces across the gateway and a replica,
# a build from the interactome files under e2e/testdata/mips/ (output and
# digest at two GOMAXPROCS, then lamoctl motifs and predict against it)
# against goldens under e2e/testdata/files/, and the stdout of the five
# examples and of motiffind and gostats over those files against goldens
# under e2e/testdata/examples/. -count=1 because the test binary does not
# import the programs it builds, so a cached pass would survive a change
# to them.
e2e:
	$(GO) vet -tags e2e ./e2e/
	$(GO) test -tags e2e -count=1 ./e2e/

ci: build fmt lint test race alloc alloc-build paper-golden fuzz bench-module bench-smoke e2e
