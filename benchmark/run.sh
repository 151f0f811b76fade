#!/usr/bin/env bash
# The benchmark's entry point for the driver (BENCHMARK.json "command"):
# builds the harness from source and runs it with the driver's arguments.
# Everything the build leaves behind — the binary, Go's build cache and
# its temporary files — stays under .bench_build/ at the root of the
# checkout, so nothing is read or written outside it. `go run ./benchmark`
# does the same job by hand with the user's own Go cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/caribou-benchmark" ./benchmark
exec "$build/caribou-benchmark" "$@"
