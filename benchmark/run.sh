#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there, so the Go build cache and everything else a
# run writes stay inside the checkout. Arguments go to the benchmark:
#   bash benchmark/run.sh --workload ingest --seed 1 --seconds 23 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/propeller-benchmark" .)
cd "$root"
exec "$out/propeller-benchmark" "$@"
