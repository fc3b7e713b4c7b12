#!/usr/bin/env bash
# Builds the benchmark from source and runs it, touching nothing outside the
# checkout: Go's build cache, its temp dir, HOME and the benchmark's own temp
# files (WAL directories, the trace file) all live under .bench_build/.
#
#   bash bench/run.sh --workload tcp5-pig --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
