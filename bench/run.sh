#!/usr/bin/env bash
# Entry point of the repository benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload predict --seed 1 --seconds 16 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
#   bash bench/run.sh smoke
#
# It keeps every build output (Go build cache, binaries, artifacts, logs,
# traces, results) under .bench_build/ in the checkout, builds the bench
# binary from bench/ (its own module) and execs it. The bench builds
# cmd/lamod itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/lamod || ! -d internal ]]; then
	echo "bench: $root does not hold the lamofinder sources (go.mod, cmd/lamod, internal/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
# The go command keeps its settings and telemetry counters in the user's
# config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
# The module has no dependencies to fetch; never reach for the network or
# for another toolchain.
export GOPROXY=off GOTOOLCHAIN=local

(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
