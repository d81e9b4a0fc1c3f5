#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload rebuild --seed 1 --seconds 50 --trace 0
#
# The binary and the Go build cache go to .bench_build/, journals, spans
# and CPU profiles to .bench_out/.
set -euo pipefail
root="$PWD"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build"
(cd perfbench && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
