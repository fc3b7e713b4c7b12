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
# pigbench is built once and runs from a temporary directory, so a failing
# sweep writes its shrunk-*.json there, not into the checkout. A run that
# exits non-zero prints its exit status in place. Takes a few minutes.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && go build -o "$tmp/pigbench" ./cmd/pigbench)
cd "$tmp"
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
