#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it from the checkout
# root; arguments go to the driver unchanged. The build cache, the binary
# and the driver's temp files all live in .bench_build/ inside the
# checkout (set GOCACHE to share a cache you already have).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/curtainbench" .)
cd "$root"
exec "$build/curtainbench" "$@"
