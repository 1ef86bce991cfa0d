#!/usr/bin/env bash
# Builds the mac3d benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash mac3dbench/run.sh --workload sg-ideal --seed 1 --seconds 10 --trace 0
# Every build artefact, cache and temporary file stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/mac3dbench" && go build -o "$build/mac3dbench" .)
exec "$build/mac3dbench" "$@"
