#!/usr/bin/env bash
# What a CI job calls: the smoke run (every workload at 1/20 size, traced
# and untraced, digests self-consistent), then the noise-floor run (the
# full untraced suite twice on this tree; fails if any end-to-end pair
# drifts past its bound). Writes baseline/noise.json; commit it only
# when the bounds in ../BENCHMARK.json are being re-derived.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
go vet .
go test -count=1 . # TestSmoke is `go run . -smoke`
go run . -sets 2
