#!/usr/bin/env bash
# fma.sh — the fused multiply-add ledger: fused opcodes per package and
# target, the calls into the standard library's fused functions, and a
# ratchet on both.
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
# The standard library fuses too, out of sight of that count: package
# math's pure-Go bodies (hypot, sin, cos, …) hold fused opcodes on these
# targets. So math is compiled with the listing on as well, the functions
# whose bodies hold a fused opcode are collected, and every call into one
# of them from an internal/ package is counted and printed with its
# caller and the last line of the caller's package before the call (a call is
# "CALL math.x(SB)" on arm64, ppc64le and s390x, "JAL X1, math.x(SB)" on
# riscv64; the math wrapper a caller inlines shows in math's own source).
#
# Like scripts/loc.sh it is a ratchet. Fused opcodes have one ceiling for
# every package: 0. Std calls have a ceiling of 0 too, except mobility,
# held at its 2 (the sin and cos of RingRoad.place) until they run on the
# repo's own copies (ROADMAP item 12). Either above its ceiling exits 1,
# so a change that adds one shows in CI, where a float64(…) conversion
# around the product, or a call into package fp instead of math, is the
# fix.
#
# Usage: scripts/fma.sh            (about 20 s per target)
set -euo pipefail
cd "$(dirname "$0")/.."

ceiling=0 # fused opcode lines per package, on each target
declare -A stdceiling=([repro/internal/mobility]=2) # std calls per package, on each target; 0 when unlisted
targets=(arm64 ppc64le s390x riscv64)
mapfile -t pkgs < <(go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/...)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail=0
for arch in "${targets[@]}"; do
	flags=(-gcflags=math=-S)
	for p in "${pkgs[@]}"; do
		flags+=("-gcflags=$p=-S")
	done
	GOOS=linux GOARCH=$arch go build -a "${flags[@]}" -o /dev/null "${pkgs[@]}" math 2>"$work/$arch.s"
	# The listing is one block per package, opened by "# <package>"; a
	# function opens with "<symbol> STEXT"; an instruction line is
	# "<pc> <offset> (<file>:<line>) <opcode> <operands>". The first pass
	# collects math's fused functions, the second counts.
	awk -v arch="$arch" -v root="$PWD/" -v out="$work/$arch.std.txt" '
		/^# / { pkg = $2; dir = root substr(pkg, index(pkg, "/") + 1) "/"; next }
		$2 == "STEXT" { fn = $1; last = ""; next }
		FNR == NR { if (pkg == "math" && $4 ~ /^FN?M(ADD|SUB)[SD]?$/) fused[fn] = 1; next }
		pkg == "math" { next }
		{
			pos = $3
			gsub(/^\(|\)$/, "", pos)
			own = index(pos, dir) == 1
			sub(/.*\//, "", pos)
			if (own) last = pos
		}
		$4 ~ /^FN?M(ADD|SUB)[SD]?$/ {
			n[pkg]++
			if (!((pkg, fn) in seen)) { seen[pkg, fn] = 1; fns[pkg] = fns[pkg] " " fn }
			per[pkg, fn]++
			at[pkg, fn] = at[pkg, fn] " " pos
		}
		$4 ~ /^(CALL|BL|JAL)$/ && match($0, /math\.[A-Za-z0-9_]+\(SB\)/) {
			callee = substr($0, RSTART, RLENGTH - 4)
			if (callee in fused) {
				calls[pkg]++
				sites[pkg] = sites[pkg] ", " fn " → " callee " (" last ")"
			}
		}
		END {
			for (p in n) {
				printf "%-8s %-30s %3d  ", arch, p, n[p]
				k = split(substr(fns[p], 2), list, " ")
				for (i = 1; i <= k; i++) printf "%s%s (%d:%s)", (i > 1 ? ", " : ""), list[i], per[p, list[i]], at[p, list[i]]
				printf "\n"
			}
			for (p in calls) printf "%-8s %-30s %3d  std calls: %s\n", arch, p, calls[p], substr(sites[p], 3) >out
		}' "$work/$arch.s" "$work/$arch.s" | sort >"$work/$arch.txt"
	touch "$work/$arch.std.txt"
	sort -o "$work/$arch.std.txt" "$work/$arch.std.txt"
	cat "$work/$arch.txt" "$work/$arch.std.txt"
	while read -r _ p got _; do
		if [ "$got" -gt "$ceiling" ]; then
			echo "fma.sh: $arch $p has $got fused opcodes, above the ceiling $ceiling" >&2
			fail=1
		fi
	done <"$work/$arch.txt"
	while read -r _ p got _; do
		if [ "$got" -gt "${stdceiling[$p]:-0}" ]; then
			echo "fma.sh: $arch $p has $got calls into fused std functions, above the ceiling ${stdceiling[$p]:-0}" >&2
			fail=1
		fi
	done <"$work/$arch.std.txt"
	echo "$arch: ${#pkgs[@]} packages, $(awk '{ s += $3 } END { print s + 0 }' "$work/$arch.txt") fused opcodes, $(awk '{ s += $3 } END { print s + 0 }' "$work/$arch.std.txt") calls into fused std functions"
done
exit "$fail"
