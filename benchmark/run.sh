#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind goes to .bench_build in the checkout; results go to benchmark/out.
#
#   bash benchmark/run.sh --workload paper16_dynamics --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -seed 1                  # a set: every workload, -runs times
#   bash benchmark/run.sh -compare out/a.json out/b.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
