#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes stays inside the checkout: the binary, the Go build
# cache, the go command's temporary files and its telemetry counters (which
# follow XDG_CONFIG_HOME) under .bench_build/, results under benchmark/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/mxkvbench" .)
cd "$root"
exec "$build/mxkvbench" "$@"
