#!/usr/bin/env bash
# Prints the numbers ROADMAP aim 2 tracks, from the repository root: three
# line counts — non-test Go outside bench/ (and its build directory), test
# Go, and bench/ — and the count of independently settable values, which the
# simplicity guide asks a reviewer to compare before and after a change.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
product() { find . -name '*.go' -not -path './.bench_build/*' "$@" -print0; }
count() { product "$@" | xargs -0 cat | wc -l; }
echo "non-test Go (outside bench/): $(count -not -name '*_test.go' -not -path './bench/*')"
echo "test Go (outside bench/):     $(count -name '*_test.go' -not -path './bench/*')"
echo "bench/ (its own module):      $(count -path './bench/*')"

# A settable value is an exported field of a struct whose name ends in Config,
# Options, Opts or Spec (a field list like `A, B int` counts each name; an
# embedded struct is not a value of its own), or a flag.* definition under
# cmd/.
fields=$(product -not -name '*_test.go' -not -path './bench/*' | xargs -0 awk '
	/^type [A-Za-z0-9_]*(Config|Options|Opts|Spec) struct \{/ { inside = 1; next }
	/^\}/ { inside = 0 }
	inside && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*[ \t]+[^ \t\/]/) {
		names = substr($0, RSTART, RLENGTH)
		n += gsub(/,/, ",", names) + 1
	}
	END { print n + 0 }')
flags=$(find cmd -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat |
	grep -oE 'flag\.(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var|[A-Z][A-Za-z0-9]*Var)\(' | wc -l)
echo "settable values (Config/Options/Opts/Spec fields + cmd/ flags): $((fields + flags)) ($fields + $flags)"
