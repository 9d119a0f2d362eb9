#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# checkout, with the benchmark's flags:
#
#   bash perfbench/run.sh --workload kecss-cuts --seed 1 --seconds 15 --trace 0
#
# The binary and the Go build cache live under .bench_build/ in the
# checkout. The build needs
# the repository's own module one directory up; without it the build fails
# and no result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
