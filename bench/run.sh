#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it, so that nothing
# is read or written outside: the Go build cache and the binary live in
# .bench_build/ at the repository root. Arguments go to the benchmark.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/blockbench" .
exec "$root/.bench_build/blockbench" "$@"
