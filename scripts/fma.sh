#!/usr/bin/env bash
# fma.sh — the fused multiply-add ledger: fused opcodes per package and
# target, and a ratchet.
#
# The Go spec lets a compiler fuse x*y + z into one instruction, rounded
# once. gc never does on amd64 and does on arm64, ppc64le, s390x and
# riscv64, so every fused opcode in the tree is a place where an amd64 run
# and a run on those targets may disagree in the last bit (ROADMAP item
# 12, DESIGN.md §2.2). This script compiles every package under internal/
# for the four targets with the assembly listing on (go build -a
# -gcflags=<pkg>=-S; -a, because a package served from the build cache
# prints no listing), counts the fused opcodes (FMADD, FMSUB, FNMADD,
# FNMSUB, in their single and double forms) per package, and names the
# functions and source lines that hold them.
#
# Like scripts/loc.sh it is a ratchet, with one ceiling for every package:
# 0. A fused opcode anywhere exits 1, so a change that adds one shows in
# CI, where a float64(…) conversion around the product is the fix.
#
# Usage: scripts/fma.sh            (about 20 s per target)
set -euo pipefail
cd "$(dirname "$0")/.."

ceiling=0 # fused opcode lines per package, on each target
targets=(arm64 ppc64le s390x riscv64)
mapfile -t pkgs < <(go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/...)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail=0
for arch in "${targets[@]}"; do
	flags=()
	for p in "${pkgs[@]}"; do
		flags+=("-gcflags=$p=-S")
	done
	GOOS=linux GOARCH=$arch go build -a "${flags[@]}" -o /dev/null "${pkgs[@]}" 2>"$work/$arch.s"
	# The listing is one block per package, opened by "# <package>"; a
	# function opens with "<symbol> STEXT"; an instruction line is
	# "<pc> <offset> (<file>:<line>) <opcode> <operands>".
	awk -v arch="$arch" '
		/^# / { pkg = $2; next }
		$2 == "STEXT" { fn = $1; next }
		$4 ~ /^FN?M(ADD|SUB)[SD]?$/ {
			n[pkg]++
			if (!((pkg, fn) in seen)) { seen[pkg, fn] = 1; fns[pkg] = fns[pkg] " " fn }
			per[pkg, fn]++
			pos = $3
			gsub(/^\(|\)$/, "", pos)
			sub(/.*\//, "", pos)
			at[pkg, fn] = at[pkg, fn] " " pos
		}
		END {
			for (p in n) {
				printf "%-8s %-30s %3d  ", arch, p, n[p]
				k = split(substr(fns[p], 2), list, " ")
				for (i = 1; i <= k; i++) printf "%s%s (%d:%s)", (i > 1 ? ", " : ""), list[i], per[p, list[i]], at[p, list[i]]
				printf "\n"
			}
		}' "$work/$arch.s" | sort >"$work/$arch.txt"
	cat "$work/$arch.txt"
	while read -r _ p got _; do
		if [ "$got" -gt "$ceiling" ]; then
			echo "fma.sh: $arch $p has $got fused opcodes, above the ceiling $ceiling" >&2
			fail=1
		fi
	done <"$work/$arch.txt"
	echo "$arch: ${#pkgs[@]} packages, $(awk '{ s += $3 } END { print s + 0 }' "$work/$arch.txt") fused opcodes"
done
exit "$fail"
