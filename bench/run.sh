#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Builds the bench from source into
# .bench_build/ at the root of the checkout, with the Go build cache there
# too, so a run reads and writes nothing outside the checkout, then hands its
# arguments to the binary. Run it from the root of the checkout.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false
go build -o .bench_build/murmuration-bench ./bench
exec .bench_build/murmuration-bench "$@"
