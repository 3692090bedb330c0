#!/usr/bin/env bash
# Entry point of the benchmark driver (see ../BENCHMARK.json): build the
# harness from source into <checkout>/.bench_build and run it from this
# directory, passing every argument through. Nothing is read or written
# outside the checkout: the Go build cache, temp files and the toolchain's
# own config directory are all pointed into .bench_build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off

cd "$here"
go build -o "$build/tahoe-bench" .
exec "$build/tahoe-bench" "$@"
