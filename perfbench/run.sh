#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The Go build cache also lives in
# .bench_build/, so the first run compiles everything and later runs only
# relink.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The module has no dependencies outside the repository, so nothing is
# ever downloaded.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
