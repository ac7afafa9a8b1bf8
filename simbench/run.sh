#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#   bash simbench/run.sh --workload exec-bfs --seed 1 --seconds 35 --trace 0
# Build cache, temporary files and outputs stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/simbench" && go build -o "$out/simbench.bin" .)
cd "$root"
exec "$out/simbench.bin" "$@"
