#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (Go's build cache included) goes under
# .bench_build/ at the repository root, so nothing outside the checkout
# is touched; the first build compiles the standard library too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/ghostdb-benchmark" .)
cd "$root"
exec "$build/ghostdb-benchmark" "$@"
