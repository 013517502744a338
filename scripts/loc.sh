#!/usr/bin/env bash
# loc.sh — the LOC ledger: non-test Go lines per package.
#
# ROADMAP aim 2 accepts a simplification only when this goes down, so the
# numbers are printed by CI on every push. cmd/grpbench is listed apart
# from the total: the benchmark may not change with the code it measures,
# so its size says nothing about a change to the system.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

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
