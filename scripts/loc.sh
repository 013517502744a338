#!/usr/bin/env bash
# loc.sh — the LOC ledger: non-test Go lines per package, and a ratchet.
#
# ROADMAP aim 2 accepts a simplification only when this goes down, so CI
# prints the numbers on every push and the total is held under a ceiling,
# like the allocation ceilings: above it the script exits 1, so a change
# that grows the tree raises the number below in its own diff, where a
# reviewer sees it; a change that shrinks the tree lowers it to its result.
# cmd/grpbench is listed apart from the total and outside the ceiling:
# the benchmark may not change with the code it measures, so its size
# says nothing about a change to the system.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ceiling=16431 # total (non-test, without cmd/grpbench) at the last change that moved it

count() { # non-test .go lines directly in directory $1
	find "$1" -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l
}

total=0
while read -r dir; do
	n=$(count "$dir")
	if [ "$dir" = ./cmd/grpbench ]; then
		bench=$n
		continue
	fi
	printf '%6d  %s\n' "$n" "${dir#./}"
	total=$((total + n))
done < <(find . -name '*.go' -not -name '*_test.go' -not -path './.*' -exec dirname {} + | sort -u)
printf '%6d  total (non-test, without cmd/grpbench)\n' "$total"
printf '%6d  cmd/grpbench (the benchmark, listed apart)\n' "${bench:-0}"
if [ "$total" -gt "$ceiling" ]; then
	echo "loc.sh: total $total is above the ceiling $ceiling (raise it in this script if the growth is meant)" >&2
	exit 1
fi
