#!/usr/bin/env bash
# fma.sh — the fused multiply-add ledger: fused opcodes per package and
# target, and a ratchet.
#
# The Go spec lets a compiler fuse x*y + z into one instruction, rounded
# once. gc never does on amd64 and does on arm64, ppc64le, s390x and
# riscv64, so every fused opcode in the packages that carry positions into
# the trace is a place where an amd64 run and a run on those targets may
# disagree in the last bit (ROADMAP item 12). This script compiles
# internal/space and internal/mobility for the four targets with the
# assembly listing on (go build -a -gcflags=<pkg>=-S; -a, because a
# package served from the build cache prints no listing), counts the
# fused opcodes (FMADD, FMSUB, FNMADD, FNMSUB, in their single and double
# forms) per package, and names the functions that hold them.
#
# Like scripts/loc.sh it is a ratchet: a count above its ceiling below
# exits 1, so a change that adds a fusion shows in CI, and a change that
# removes one lowers the number here in its own diff.
#
# Usage: scripts/fma.sh            (about 15 s per target)
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A ceiling=( # fused opcode lines per package, on each target
	[repro/internal/space]=0
	[repro/internal/mobility]=0
)
targets=(arm64 ppc64le s390x riscv64)
pkgs=(repro/internal/space repro/internal/mobility)

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
		}
		END {
			for (p in n) {
				printf "%-8s %-26s %3d  ", arch, p, n[p]
				k = split(substr(fns[p], 2), list, " ")
				for (i = 1; i <= k; i++) printf "%s%s (%d)", (i > 1 ? ", " : ""), list[i], per[p, list[i]]
				printf "\n"
			}
		}' "$work/$arch.s" | sort >"$work/$arch.txt"
	cat "$work/$arch.txt"
	for p in "${pkgs[@]}"; do
		got=$(awk -v p="$p" '$2 == p { print $3 }' "$work/$arch.txt")
		got=${got:-0}
		if [ "$got" -gt "${ceiling[$p]}" ]; then
			echo "fma.sh: $arch $p has $got fused opcodes, above the ceiling ${ceiling[$p]}" >&2
			fail=1
		fi
	done
done
exit "$fail"
