#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload index-ycsb --seed 1 --seconds 20 --trace 0
#
# The build cache and the binary live in .bench_build/ at the root, so the
# benchmark reads and writes nothing outside the checkout. Outside a full
# checkout (no root go.mod) the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/p4lru-benchmark" .) >&2
exec "$out/p4lru-benchmark" "$@"
