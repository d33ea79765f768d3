#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from
# the checkout root. Everything the build writes (binary, compile cache,
# temp files) stays inside the checkout; a directory without the
# library's go.mod fails here, before any result is printed.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/dynbench" .
exec "$build/dynbench" "$@"
