// Package shard is the one static, seed-pure split of the node set and
// the one parallel-for every layer replays it with: the engine's phases,
// the world's row scan and the tracker's observation all bucket a node by
// Of and fan out through Run or Slots, which is what keeps a trace
// bit-identical at any worker count.
package shard

import (
	"sync"

	"repro/internal/ident"
)

// N is the fixed shard count node work is partitioned into. It is
// deliberately independent of any worker count and of GOMAXPROCS:
// per-shard state (RNG streams, canonical order) is what makes the
// parallel trace reproducible, so it must not change when the width does.
const N = 64

// Of maps a node to its shard.
func Of(v ident.NodeID) int { return int(uint32(v) % N) }

// Width clamps a requested worker count to the effective fan-out width,
// 1..N: what a caller sizes per-worker scratch to.
func Width(workers int) int { return min(max(workers, 1), N) }

// Run applies fn to every shard; fn(s, w) must only write state owned by
// shard s or by worker w. See Slots for the assignment.
func Run(workers int, fn func(s, w int)) { Slots(workers, N, fn) }

// Slots applies fn to n independent items: inline at width ≤ 1, else on
// min(Width(workers), n) goroutines with the static stripe i, i+w, … —
// item i always runs on worker i mod Width(workers). fn(i, w) must only
// write state owned by item i or by worker w, so the outcome is
// independent of the width.
func Slots(workers, n int, fn func(i, w int)) {
	w := min(Width(workers), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += w {
				fn(i, k)
			}
		}(k)
	}
	wg.Wait()
}
