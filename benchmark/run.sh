#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build (Go build and
# module caches included, so nothing is written outside the checkout) and runs
# it from the checkout root. All arguments go to the benchmark binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/holistic-benchmark" .)
cd "$root"
exec "$build/holistic-benchmark" -out "$(basename "$here")/out" "$@"
