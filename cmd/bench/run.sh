#!/usr/bin/env bash
# The command BENCHMARK.json names: build cmd/bench from source and run
# it with the driver's arguments. Everything the build leaves behind —
# the binary, the Go build cache, compiler scratch files — goes under
# .bench_build/ in the checkout, so a run reads and writes nothing
# outside it. A warm cache makes the build a ~0.2 s no-op.
set -euo pipefail
cd "$(dirname "$0")/../.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
go build -o "$out/bench" ./cmd/bench
exec "$out/bench" "$@"
