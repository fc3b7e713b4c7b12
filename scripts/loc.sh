#!/usr/bin/env bash
# Prints the three line counts ROADMAP aim 2 tracks, from the repository root:
# non-test Go outside bench/ (and its build directory), test Go, and bench/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
count() { find . -name '*.go' -not -path './.bench_build/*' "$@" -print0 | xargs -0 cat | wc -l; }
echo "non-test Go (outside bench/): $(count -not -name '*_test.go' -not -path './bench/*')"
echo "test Go (outside bench/):     $(count -name '*_test.go' -not -path './bench/*')"
echo "bench/ (its own module):      $(count -path './bench/*')"
