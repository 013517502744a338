#!/usr/bin/env bash
# dist_smoke.sh — two-process conformance smoke for internal/dist.
#
# Runs the same seeded commuter scenario three ways and requires the
# outputs to be bit-identical:
#
#   1. -shards 1                   (the single-process reference)
#   2. -shards 2 -transport loopback  (two shards, one process)
#   3. -shards 2 -transport tcp       (two OS processes over localhost)
#
# Compared surfaces: the end-of-run state fingerprint (fold of every
# node's state hash), the full per-round stats JSONL stream (byte
# equality — RoundStats carries no wall-clock fields), and the final
# report text minus its timing lines. Any drift is a determinism bug in
# the ghost-boundary protocol, the shard-order merge, or the lead's
# tracker mirror.
#
# Then the failure side: the same two OS processes on a run too long to
# finish, shard 1 killed with -9 mid-run — shard 0 must exit non-zero
# within 5 s with an error naming shard 1. (A peer that stalls without
# dying is internal/dist's stalled-peer test under a short bound: here it
# would wait out the 30 s production constant.)
#
# Usage: scripts/dist_smoke.sh [rounds]   (default 30)
set -euo pipefail
cd "$(dirname "$0")/.."

rounds="${1:-30}"
work=".dist-smoke.$$"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT
mkdir -p "$work"

go build -o "$work/grpsoak" ./cmd/grpsoak

# The commuter conformance scenario the dist test suite pins: parked
# majority, active border traffic across the slab cut, fixed membership
# (-join 0 -leave 0 — dist.Config.Validate rejects churn).
common=(-n 150 -side 33 -active 0.08 -seed 19 -dmax 3 -workers 4
  -rounds "$rounds" -join 0 -leave 0 -progress 0 -fingerprint)

echo "== 1 process =="
"$work/grpsoak" "${common[@]}" -stats "$work/base.jsonl" | tee "$work/base.out"

echo "== 2 shards, loopback =="
"$work/grpsoak" "${common[@]}" -shards 2 -transport loopback \
  -stats "$work/loop.jsonl" | tee "$work/loop.out"

echo "== 2 shards, 2 OS processes over TCP localhost =="
port0=$((20000 + $$ % 20000))
peers="127.0.0.1:${port0},127.0.0.1:$((port0 + 1))"
"$work/grpsoak" "${common[@]}" -shards 2 -transport tcp -peers "$peers" \
  -shard-index 1 &
"$work/grpsoak" "${common[@]}" -shards 2 -transport tcp -peers "$peers" \
  -shard-index 0 -stats "$work/tcp.jsonl" | tee "$work/tcp.out"
wait %%

fp() { grep '^fingerprint:' "$1"; }
base_fp="$(fp "$work/base.out")"
for run in loop tcp; do
  run_fp="$(fp "$work/$run.out")"
  if [ "$run_fp" != "$base_fp" ]; then
    echo "FAIL: $run $run_fp != 1-proc $base_fp" >&2
    exit 1
  fi
  if ! cmp -s "$work/base.jsonl" "$work/$run.jsonl"; then
    echo "FAIL: $run stats stream diverges from the 1-proc stream:" >&2
    diff <(head -c 4000 "$work/base.jsonl") <(head -c 4000 "$work/$run.jsonl") >&2 || true
    exit 1
  fi
  # The report is identical except wall-clock throughput.
  if ! diff <(grep -v 'ticks/s\|elapsed' "$work/base.out") \
            <(grep -v 'ticks/s\|elapsed' "$work/$run.out"); then
    echo "FAIL: $run final report diverges from 1-proc" >&2
    exit 1
  fi
done

echo "OK: $base_fp identical across 1-proc, loopback, and TCP (${rounds} rounds)"

echo "== kill shard 1 mid-run: shard 0 must fail within 5 s and name it =="
peers="127.0.0.1:$((port0 + 2)),127.0.0.1:$((port0 + 3))"
endless=("${common[@]}" -rounds 100000000 -shards 2 -transport tcp -peers "$peers")
"$work/grpsoak" "${endless[@]}" -shard-index 1 &
victim=$!
"$work/grpsoak" "${endless[@]}" -shard-index 0 -progress 20 \
  >"$work/kill.out" 2>"$work/kill.err" &
lead=$!
for _ in $(seq 300); do # mid-run: the lead has observed merged rounds
  grep -q '^round' "$work/kill.out" && break
  sleep 0.1
done
if ! grep -q '^round' "$work/kill.out"; then
  echo "FAIL: the two-process run never got going:" >&2
  cat "$work/kill.err" >&2
  exit 1
fi
kill -9 "$victim"
wait "$victim" 2>/dev/null || true
for _ in $(seq 50); do
  kill -0 "$lead" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$lead" 2>/dev/null; then
  kill -9 "$lead"
  echo "FAIL: shard 0 still running 5 s after shard 1 was killed" >&2
  exit 1
fi
if wait "$lead"; then
  echo "FAIL: shard 0 exited 0 although shard 1 was killed mid-run" >&2
  exit 1
fi
if ! grep -q 'shard 1' "$work/kill.err"; then
  echo "FAIL: shard 0's error does not name shard 1:" >&2
  cat "$work/kill.err" >&2
  exit 1
fi
echo "OK: shard 0 failed loudly: $(tail -n 1 "$work/kill.err")"
