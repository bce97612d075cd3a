#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
#
#   bash bench/run.sh --workload t1-original --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1 -out results.json     # one set: all workloads
#   bash bench/run.sh -diff bench/baseline.json results.json
#
# The build cache, the binary and every scratch file live under
# .bench_build/ at the repository root, so a run writes nothing outside
# the checkout. Without the repository's sources beside bench/ the build
# fails and the script exits nonzero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export HOME="$build/home" TMPDIR="$build/tmp"
(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .)
exec "$build/bench" "$@"
