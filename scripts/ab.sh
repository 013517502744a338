#!/usr/bin/env bash
# ab.sh — an interleaved A/B of grpbench between two git refs, or two
# prebuilt binaries.
#
# Builds ./cmd/grpbench at REF_A, from a `git archive` of it unpacked in
# a temporary directory, and at REF_B (likewise; without REF_B, the
# working tree as it stands), so that it writes nothing into the
# repository; with -bin A B it runs the grpbench binaries A and B as they
# are and builds nothing. Then it runs pairs for each workload and seed,
# alternating which side runs first (A B, B A, A B, …), every run a process of its
# own. For each metric of the result line and of the #host line
# (driver.cpu_ms_per_round first among the host metrics) it prints both
# medians, both interquartile ranges (Python's
# exclusive quantiles, grpbench's rule), how many pairs B was lower in,
# and a verdict: "every B below every A", "every B above every A" (at
# least five runs a side: with three, identical code separates by chance
# one time in ten), "equal" (every run the same value) or "unresolved".
# Air bytes, the safety rate, the stream SHA-256 and the fingerprint must
# be equal in every run of both sides; a difference prints a line
# starting "!!! DIFFERS", and so does a run that fails a check. A traced
# run (-trace 1) prints none of the four, so its summary says "exact:
# none checked" and names the -trace 0 rerun that checks them.
#
# With -bench 'PKG REGEXP' it times Go benchmarks instead: it builds the
# test binary of PKG (a package directory, ./internal/wire) at each side,
# from the same sources, and runs pairs of it, each run a process of its
# own started in the package directory, with -test.run '^$' -test.bench
# REGEXP -test.count 1 -test.cpu 1 -test.benchmem (and -test.timeout 10m,
# so that a hung benchmark fails its run). Every metric of a
# benchmark line (ns/op, B/op, allocs/op) goes through the same summary;
# a bench run checks no exact value, and a run that does not print PASS
# and a benchmark line fails a check.
#
# Interrupted (INT, TERM) or done, it kills the run in flight and removes
# its sources and binaries. (A non-interactive shell starts a
# background job with INT ignored, and bash cannot trap an ignored
# signal: stop such a job with TERM.)
#
# Usage: scripts/ab.sh {REF_A [REF_B] | -bin A B} [-w workload[,workload…]]
#          [-seeds 1[,2…]] [-pairs 5] [-trace 0|1]
#        scripts/ab.sh REF_A [REF_B] -bench 'PKG REGEXP' [-pairs 5]
# Defaults: all four workloads, seed 1, five pairs, -trace 0. Each run
# measures grpbench's -seconds 6 window (about 20–30 s a run); a bench
# run takes what go test's -benchtime 1s makes of it.
# Exit status: 0 when every run passed its checks and every exact value
# is equal, 1 otherwise, 2 on a usage or build error.
set -euo pipefail

usage() {
	sed -n 's/^# \{0,1\}//; /^Usage:/,/^Exit/p' "$0" | sed '$d' >&2
	exit 2
}

refs=() bins=()
workloads=parked-commuter,rwp-allmoving,churn-chaos,parked-2shard
seeds=1 pairs=5 trace=0 bench=
while [ $# -gt 0 ]; do
	case "$1" in
	-bin) bins=("${2:?}" "${3:?}"); shift 3 ;;
	-bench) bench=${2:?}; shift 2 ;;
	-w) workloads=${2:?}; shift 2 ;;
	-seeds) seeds=${2:?}; shift 2 ;;
	-pairs) pairs=${2:?}; shift 2 ;;
	-trace) trace=${2:?}; shift 2 ;;
	-h | --help | -*) usage ;;
	*) refs+=("$1"); shift ;;
	esac
done
if [ ${#bins[@]} -eq 2 ]; then
	[ ${#refs[@]} -eq 0 ] && [ -z "$bench" ] || usage
else
	[ ${#refs[@]} -ge 1 ] && [ ${#refs[@]} -le 2 ] || usage
fi
case "$pairs$trace" in *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage
pkg=${bench%% *} regexp=${bench#* }
[ -z "$bench" ] || { [ "$pkg" != "$bench" ] && [ -n "$pkg" ] && [ -n "$regexp" ]; } || usage

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
child=
cleanup() {
	trap - EXIT INT TERM
	if [ -n "$child" ]; then
		kill "$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'cleanup; exit 130' INT
trap 'cleanup; exit 143' TERM

# bg runs a command as the one child in flight, so that a signal reaches
# the trap at once instead of after the command, and returns its status.
bg() {
	"$@" &
	child=$!
	local rc=0
	wait "$child" || rc=$?
	child=
	return "$rc"
}

# indir DIR CMD…: CMD run from DIR (bg runs a function in a subshell).
indir() { cd "$1" && shift && exec "$@"; }

# build SIDE REF: a binary of ./cmd/grpbench at REF (empty: the working
# tree) at $tmp/grpbench-SIDE, or with -bench the test binary of PKG at
# $tmp/bench-SIDE, its source directory in src[SIDE]. -trimpath and
# -buildvcs=false make the binary a function of the source alone: built
# in the working tree or in an unpacked archive, the same source gives
# the same bytes, so where a side was built cannot move its code
# placement.
declare -A src
build() {
	local side=$1 ref=$2 dir=$root
	if [ -n "$ref" ]; then
		dir=$tmp/src-$side
		git -C "$root" rev-parse --quiet --verify "$ref^{commit}" >/dev/null ||
			{ echo "ab.sh: $ref is not a commit" >&2; exit 2; }
		mkdir "$dir"
		git -C "$root" archive "$ref" | tar -x -C "$dir"
	fi
	src[$side]=$dir
	if [ -n "$bench" ]; then
		[ -d "$dir/$pkg" ] || { echo "ab.sh: $pkg is not a package directory at ${ref:-the working tree}" >&2; exit 2; }
		bg go -C "$dir" test -c -trimpath -buildvcs=false -o "$tmp/bench-$side" "$pkg" ||
			{ echo "ab.sh: building the tests of $pkg for $side at ${ref:-the working tree} failed" >&2; exit 2; }
		return
	fi
	bg go -C "$dir" build -trimpath -buildvcs=false -o "$tmp/grpbench-$side" ./cmd/grpbench ||
		{ echo "ab.sh: building $side at ${ref:-the working tree} failed" >&2; exit 2; }
}

if [ ${#bins[@]} -eq 2 ]; then
	sides=(a b)
	for i in 0 1; do
		bin=${bins[i]}
		[ -f "$bin" ] && [ -x "$bin" ] || { echo "ab.sh: $bin is not an executable file" >&2; exit 2; }
		ln -s "$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")" "$tmp/grpbench-${sides[i]}"
	done
	name_a=${bins[0]} name_b=${bins[1]}
else
	name_a=$(git -C "$root" rev-parse --short "${refs[0]}^{commit}" 2>/dev/null || echo "${refs[0]}")
	name_b="the working tree"
	[ ${#refs[@]} -eq 2 ] && name_b=$(git -C "$root" rev-parse --short "${refs[1]}^{commit}" 2>/dev/null || echo "${refs[1]}")
	build a "${refs[0]}"
	build b "${refs[1]:-}"
fi
mkdir -p "$tmp/out"

# parse SIDE PAIR: one run's output on stdin as "side pair key value"
# lines; the stream and the fingerprint come from the "#" line, host time
# from "#host", the rest from the result line.
parse() {
	awk -v side="$1" -v pair="$2" '
	function metrics(s, prefix) {
		while (match(s, /"[A-Za-z0-9_.]+":\{"value":[^,}]+/)) {
			tok = substr(s, RSTART + 1, RLENGTH - 1)
			s = substr(s, RSTART + RLENGTH)
			split(tok, kv, /":\{"value":/)
			print side, pair, prefix kv[1], kv[2]
		}
	}
	/^# .* stream [0-9a-f]+, fingerprint [0-9a-f]+/ {
		match($0, /stream [0-9a-f]+/); print side, pair, "=stream", substr($0, RSTART + 7, RLENGTH - 7)
		match($0, /fingerprint [0-9a-f]+/); print side, pair, "=fingerprint", substr($0, RSTART + 12, RLENGTH - 12)
	}
	/^#host / { metrics($0, "#") }
	/^FAILED/ { bad = 1 }
	/^\{"correct":/ { ok = 1; if ($0 !~ /"correct":true/) bad = 1; metrics($0, "") }
	END { if (bad || !ok) print side, pair, "!failed", 1 }'
}

# parsebench SIDE PAIR: one go test -bench run on stdin as "side pair key
# value" lines, a key per benchmark and unit (BenchmarkX.ns/op).
parsebench() {
	awk -v side="$1" -v pair="$2" '
	/^Benchmark[^ \t]+[ \t]+[0-9]+[ \t]/ { n++; for (i = 3; i < NF; i += 2) print side, pair, $1 "." $(i + 1), $i }
	/^PASS$/ { ok = 1 }
	/^(--- )?FAIL/ { bad = 1 }
	END { if (bad || !ok || !n) print side, pair, "!failed", 1 }'
}

# summarize CHECK WHY: the "side pair key value" lines of one workload and
# seed (or of the bench runs) on stdin, the table and the exact checks on
# stdout; exit 1 on a difference. CHECK names what a failed run lacked,
# WHY why no exact value was checked, when none was.
summarize() {
	awk -v pairs="$pairs" -v check="$1" -v why="$2" '
	function sort(a, n,    i, j, x) {
		for (i = 2; i <= n; i++) {
			x = a[i]
			for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
			a[j + 1] = x
		}
	}
	# q(a, n, i): the i-th of Python statistics.quantiles(n=4) cut points.
	function q(a, n, i,    j, d) {
		if (n == 1) return a[1]
		j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
		d = i * (n + 1) - j * 4
		return (a[j] * (4 - d) + a[j + 1] * d) / 4
	}
	{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; keys[++nk] = $3 } }
	$3 == "!failed" { bad = 1; print "!!! DIFFERS: run " $2 " of side " toupper($1) " failed a check (" check ")" }
	END {
		# driver.cpu_ms_per_round moves to the head of the host metrics.
		for (k = 1; k <= nk && keys[k] !~ /^#/; k++) ;
		for (h = k; k <= nk; k++) if (keys[k] == "#driver.cpu_ms_per_round") {
			for (; k > h; k--) keys[k] = keys[k - 1]
			keys[h] = "#driver.cpu_ms_per_round"
			break
		}
		ne = split("air_bytes_per_node_round safety_rate_mean =stream =fingerprint", exact, " ")
		printf "%-34s %12s %10s %12s %10s %5s  %s\n", "metric", "A median", "A IQR", "B median", "B IQR", "B<A", "verdict"
		for (k = 1; k <= nk; k++) {
			key = keys[k]
			if (key ~ /^[=!]/) continue
			na = nb = lower = 0; same = 1; split("", a); split("", b)
			for (p = 1; p <= pairs; p++) {
				if (("a" SUBSEP p SUBSEP key) in v) { a[++na] = v["a", p, key] + 0 }
				if (("b" SUBSEP p SUBSEP key) in v) { b[++nb] = v["b", p, key] + 0 }
				if ((("a" SUBSEP p SUBSEP key) in v) && (("b" SUBSEP p SUBSEP key) in v) && v["b", p, key] + 0 < v["a", p, key] + 0) lower++
			}
			for (i = 1; i <= na; i++) if (a[i] != a[1]) same = 0
			for (i = 1; i <= nb; i++) if (b[i] != a[1]) same = 0
			if (na == 0 || nb == 0) continue
			sort(a, na); sort(b, nb)
			verdict = "unresolved"
			if (same) verdict = "equal"
			else if (na < 5 || nb < 5) verdict = "unresolved"
			else if (b[nb] < a[1]) verdict = "every B below every A"
			else if (b[1] > a[na]) verdict = "every B above every A"
			name = key; sub(/^#/, "#host ", name)
			printf "%-34s %12.6g %10.4g %12.6g %10.4g %2d/%-2d  %s\n", name, q(a, na, 2), q(a, na, 3) - q(a, na, 1),
				q(b, nb, 2), q(b, nb, 3) - q(b, nb, 1), lower, (na < nb ? na : nb), verdict
		}
		checked = 0
		for (e = 1; e <= ne; e++) {
			key = exact[e]
			if (!(key in seen)) continue
			checked++
			ref = ""; diff = 0; runs = 0
			for (p = 1; p <= pairs; p++) for (s = 0; s < 2; s++) {
				side = s ? "b" : "a"
				if (!((side SUBSEP p SUBSEP key) in v)) continue
				runs++
				if (ref == "") ref = v[side, p, key] ""
				else if ((v[side, p, key] "") != ref) diff = 1
			}
			name = key; sub(/^=/, "", name)
			if (!diff) { printf "exact: %s = %s in all %d runs\n", name, ref, runs; continue }
			bad = 1
			line = "!!! DIFFERS: " name ":"
			for (p = 1; p <= pairs; p++) line = line " A" p "=" v["a", p, key] " B" p "=" v["b", p, key]
			print line
		}
		if (!checked) print "exact: none checked (" why ")"
		exit bad
	}'
}

# one SIDE PAIR: one run of SIDE, parsed: the test binary in its package
# directory, or grpbench on workload $w and seed $seed.
one() {
	local out=$tmp/out/run-$1-$2.txt
	if [ -n "$bench" ]; then
		bg indir "${src[$1]}/$pkg" "$tmp/bench-$1" -test.run '^$' -test.bench "$regexp" \
			-test.count 1 -test.cpu 1 -test.benchmem -test.timeout 10m >"$out" 2>&1 || true
		parsebench "$1" "$2" <"$out"
		return
	fi
	bg "$tmp/grpbench-$1" -workload "$w" -seed "$seed" -seconds 6 -trace "$trace" \
		-out "$tmp/out" >"$out" 2>&1 || true
	parse "$1" "$2" <"$out"
}

# runpairs NAME DATA: the pairs, alternating which side runs first, every
# run's lines into DATA.
runpairs() {
	local p side order
	: >"$2"
	for ((p = 1; p <= pairs; p++)); do
		order="a b"
		((p % 2)) || order="b a"
		for side in $order; do
			one "$side" "$p" >>"$2"
			echo "ab.sh: $1 pair $p/$pairs side ${side^^} done" >&2
		done
	done
}

status=0
if [ -n "$bench" ]; then
	runpairs bench "$tmp/bench.data"
	echo "== go test -bench '$regexp' $pkg: A = $name_a, B = $name_b, $pairs pairs (A B, B A, …)"
	summarize "FAIL line, or no PASS or benchmark line" "a bench run checks no exact value" <"$tmp/bench.data" || status=1
	exit "$status"
fi
IFS=, read -r -a wl <<<"$workloads"
IFS=, read -r -a sl <<<"$seeds"
for w in "${wl[@]}"; do
	for seed in "${sl[@]}"; do
		runpairs "$w seed $seed" "$tmp/$w-$seed.data"
		echo "== $w seed $seed, -trace $trace: A = $name_a, B = $name_b, $pairs pairs (A B, B A, …)"
		summarize 'FAILED line, "correct":false or no result line' \
			"a traced run prints no stream, fingerprint, air bytes or safety rate: rerun with -trace 0 to check them" <"$tmp/$w-$seed.data" || status=1
		echo
	done
done
exit "$status"
