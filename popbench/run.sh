#!/usr/bin/env bash
# Builds the benchmark and cmd/popsimd from the checkout this script lives
# in, then runs one workload:
#
#   bash popbench/run.sh --workload fault-sim --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build/ at the root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/popbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/popbench" .)
(cd "$root" && go build -o "$out/popsimd" ./cmd/popsimd)
cd "$root"
exec "$out/popbench" -out "$out" -popsimd "$out/popsimd" "$@"
