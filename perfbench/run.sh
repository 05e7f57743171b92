#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of
# the checkout. Every build artifact (binary, Go build cache, temporary
# files) stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOENV=off
export GOPROXY=off

(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
