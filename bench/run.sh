#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root (Go build and module caches included, so nothing outside the
# checkout is written), then runs it from the root with the arguments
# given. BENCHMARK.json names this script as the benchmark command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
