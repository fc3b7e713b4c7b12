#!/usr/bin/env bash
# Prints pigbench's fixed-seed output, the byte-identity gate for a change
# that must not move simulated behaviour: at seeds 42 and 1337, `-quick -all`
# and `-quick -benchfmt -scenario <name>` for every scenario name pigbench
# knows. Lines that carry wall-clock time — `(generated in …)`,
# `BenchmarkRecovery/…` and the sweep's `scen-per-sec` — are dropped, so two
# checkouts at the same behaviour print the same bytes:
#
#	bash scripts/fixedseed.sh > /tmp/new.txt   # in the change
#	bash scripts/fixedseed.sh > /tmp/old.txt   # in the parent's checkout
#	diff /tmp/old.txt /tmp/new.txt
#
# or, in one step, against any revision of this repository:
#
#	bash scripts/fixedseed.sh --against HEAD~1
#
# which exports <rev> into a temporary directory (git archive), prints both
# trees' output, lists every `###` section whose lines moved, and ends with
# the unified diff, <rev> as the old side and the working tree as the new;
# it exits 1 when anything moved.
#
# pigbench is built once per tree and runs from a temporary directory, so a
# failing sweep writes its shrunk-*.json there, not into the checkout. A run
# that exits non-zero prints its exit status in place. Takes a few minutes
# per tree.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# outputs SRC WORK: builds pigbench from the tree at SRC into WORK and prints
# every fixed-seed run, run from WORK.
outputs() (
	src=$1 work=$2
	mkdir -p "$work"
	(cd "$src" && go build -o "$work/pigbench" ./cmd/pigbench)
	cd "$work"
	# The unknown-scenario error lists scenarioNames: "… (want a, b, c)".
	names=$({ ./pigbench -scenario '?' 2>&1 || true; } | sed -n 's/.*(want \(.*\))$/\1/p' | tr -d ,)
	[ -n "$names" ] || { echo "fixedseed.sh: no scenario names from pigbench" >&2; exit 1; }
	run() {
		echo "### pigbench $*"
		./pigbench -jobs 2 "$@" 2>&1 || echo "### exit status $?"
	}
	for seed in 42 1337; do
		run -quick -all -seed "$seed"
		for name in $names; do
			run -quick -benchfmt -scenario "$name" -seed "$seed"
		done
	done | grep -v -e '(generated in ' -e '^BenchmarkRecovery/' -e 'scen-per-sec'
)

# sections FILE: one line per `###` section, its header and its lines.
sections() {
	awk '/^### pigbench /{if (h != "") print h "\t" b; h = $0; b = ""; next} {b = b "\\n" $0} END {if (h != "") print h "\t" b}' "$1"
}

case $# in
0)
	outputs "$root" "$tmp/work"
	;;
2)
	[ "$1" = --against ] || { echo "usage: fixedseed.sh [--against <rev>]" >&2; exit 2; }
	mkdir "$tmp/base"
	git -C "$root" archive "$2" | tar -x -C "$tmp/base"
	outputs "$tmp/base" "$tmp/base-work" > "$tmp/base.txt"
	outputs "$root" "$tmp/work" > "$tmp/change.txt"
	echo "### fixed-seed output of $2 (old) against the working tree (new)"
	diff <(sections "$tmp/base.txt") <(sections "$tmp/change.txt") |
		sed -n -e 's/^< \(### [^	]*\)	.*/old: \1/p' -e 's/^> \(### [^	]*\)	.*/new: \1/p' || true
	diff -u "$tmp/base.txt" "$tmp/change.txt" && echo "### identical"
	;;
*)
	echo "usage: fixedseed.sh [--against <rev>]" >&2
	exit 2
	;;
esac
