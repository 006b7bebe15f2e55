#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it from the
# repository root. Everything it writes — the Go build cache included —
# stays under benchmark/out/, so a run touches nothing outside the
# checkout. Arguments pass through to the harness (see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/benchmark/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C benchmark -o "$out/bin/scip-benchmark" .
exec "$out/bin/scip-benchmark" "$@"
