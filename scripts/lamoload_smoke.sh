#!/usr/bin/env bash
# lamoload_smoke.sh — end-to-end gate for the serve hot path: build a quick
# indexed artifact, serve it, drive it with fixed-seed lamoload runs in both
# loop modes, and assert the handler's allocation budget (0 allocs/op on
# index hits). With LAMOLOAD_MERGE_INTO=<BENCH_*.json> the closed-loop
# latency results are also appended to that trajectory snapshot, which is
# how `make bench-json` lands serve latency beside the microbenchmarks.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
addr="127.0.0.1:${LAMOLOAD_SMOKE_PORT:-8078}"
pid=""
cleanup() {
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
        kill -KILL "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build binaries"
go build -o "$workdir/lamod" ./cmd/lamod
go build -o "$workdir/lamoctl" ./cmd/lamoctl
go build -o "$workdir/lamoload" ./cmd/lamoload

echo "== build indexed artifact"
"$workdir/lamod" build -quick -out "$workdir/model.lamoart" -note "lamoload smoke" \
    | tee "$workdir/build.log"
grep -q "indexed (format v4)" "$workdir/build.log"

echo "== serve on $addr"
"$workdir/lamod" serve -artifact "$workdir/model.lamoart" -addr "$addr" \
    >"$workdir/lamod.log" 2>&1 &
pid=$!

up=0
for _ in $(seq 1 100); do
    if "$workdir/lamoctl" health -server "http://$addr" >/dev/null 2>&1; then
        up=1
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
if [[ "$up" != 1 ]]; then
    echo "daemon never became healthy" >&2
    cat "$workdir/lamod.log" >&2
    exit 1
fi
grep -q "index scoring" "$workdir/lamod.log"

echo "== closed-loop load (fixed seed)"
"$workdir/lamoload" -artifact "$workdir/model.lamoart" -server "http://$addr" \
    -n 300 -c 4 -batch 2 -k 5 -seed 1 -out "$workdir/load.json"
grep -q '"name": "LoadPredict/p50"' "$workdir/load.json"
grep -q '"name": "LoadPredict/p99"' "$workdir/load.json"
grep -q '"name": "LoadPredict/throughput"' "$workdir/load.json"
# The daemon-side percentiles scraped from /v1/metrics ride in the same
# snapshot, so the trajectory records both sides of the wire.
grep -q '"name": "LoadPredict/daemon_p50"' "$workdir/load.json"
grep -q '"name": "LoadPredict/daemon_p99"' "$workdir/load.json"

echo "== bulk-query load (fixed seed)"
"$workdir/lamoload" -artifact "$workdir/model.lamoart" -server "http://$addr" \
    -workload query -n 100 -c 4 -batch 2 -k 5 -seed 1 -out "$workdir/query.json"
grep -q '"name": "LoadQuery/query_p50"' "$workdir/query.json"
grep -q '"name": "LoadQuery/query_p99"' "$workdir/query.json"
# rows/sec rides as its reciprocal, ns per streamed row.
grep -q '"name": "LoadQuery/query_ns_per_row"' "$workdir/query.json"
grep -q '"name": "LoadQuery/daemon_p50"' "$workdir/query.json"

echo "== open-loop load (fixed seed)"
"$workdir/lamoload" -artifact "$workdir/model.lamoart" -server "http://$addr" \
    -n 100 -rate 500 -k 5 -seed 2 -name OpenLoop -out "$workdir/open.json"
grep -q '"name": "OpenLoop/p99"' "$workdir/open.json"

echo "== served proteins counted in the metrics"
"$workdir/lamoctl" metrics -server "http://$addr" | tee "$workdir/metrics.json"
grep -q '"predictions":' "$workdir/metrics.json"
if grep -q '"predictions":0,' "$workdir/metrics.json"; then
    echo "daemon served the load without counting predictions" >&2
    exit 1
fi

if [[ -n "${LAMOLOAD_MERGE_INTO:-}" ]]; then
    echo "== merge latency results into $LAMOLOAD_MERGE_INTO"
    "$workdir/lamoload" -artifact "$workdir/model.lamoart" -server "http://$addr" \
        -n 500 -c 4 -batch 2 -k 5 -seed 1 -merge-into "$LAMOLOAD_MERGE_INTO"
    # The bulk-query percentiles and rows/sec land in the same trajectory
    # snapshot, so query throughput is baseline-diffable like everything
    # else in BENCH_*.json.
    "$workdir/lamoload" -artifact "$workdir/model.lamoart" -server "http://$addr" \
        -workload query -n 200 -c 4 -batch 2 -k 5 -seed 1 \
        -merge-into "$LAMOLOAD_MERGE_INTO"
fi

echo "== graceful shutdown"
kill -TERM "$pid"
for _ in $(seq 1 100); do
    if ! kill -0 "$pid" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
wait "$pid" || { echo "daemon exited non-zero" >&2; cat "$workdir/lamod.log" >&2; exit 1; }
pid=""

echo "== allocation budget (index hot path, bare and instrumented)"
go test -run '^$' -bench 'BenchmarkHandlerPredict(Indexed|Instrumented)$' -benchtime 200x -benchmem \
    ./internal/serve | tee "$workdir/bench.log"
grep 'BenchmarkHandlerPredictIndexed' "$workdir/bench.log" \
    | grep -qE '[[:space:]]0 allocs/op' \
    || { echo "index hot path exceeds the 0 allocs/op budget" >&2; exit 1; }
# Full observability on — trace echo, histograms, access logging — must
# not cost a single allocation either.
grep 'BenchmarkHandlerPredictInstrumented' "$workdir/bench.log" \
    | grep -qE '[[:space:]]0 allocs/op' \
    || { echo "instrumented hot path exceeds the 0 allocs/op budget" >&2; exit 1; }

echo "lamoload smoke OK"
