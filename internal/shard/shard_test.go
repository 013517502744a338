package shard

import (
	"sync/atomic"
	"testing"

	"repro/internal/ident"
)

// checkStripe runs one fan-out over count items and holds it to the
// static-stripe contract: every index exactly once, worker indices below
// min(Width(workers), count), index i on worker i mod Width(workers).
func checkStripe(t *testing.T, name string, workers, count int, run func(fn func(i, w int))) {
	t.Helper()
	visits := make([]atomic.Int32, count)
	ranOn := make([]atomic.Int32, count)
	var outOfRange atomic.Int32
	run(func(i, w int) {
		if i < 0 || i >= count {
			outOfRange.Add(1)
			return
		}
		visits[i].Add(1)
		ranOn[i].Store(int32(w))
	})
	if n := outOfRange.Load(); n != 0 {
		t.Errorf("%s(workers %d, n %d): %d calls with an index outside [0, n)", name, workers, count, n)
	}
	width := Width(workers)
	for i := range visits {
		if n := visits[i].Load(); n != 1 {
			t.Errorf("%s(workers %d, n %d): index %d visited %d times", name, workers, count, i, n)
		}
		w := int(ranOn[i].Load())
		if w >= min(width, count) || w != i%width {
			t.Errorf("%s(workers %d, n %d): index %d ran on worker %d, want %d (< %d)",
				name, workers, count, i, w, i%width, min(width, count))
		}
	}
}

func TestRunAndSlotsStripe(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 64, 65, 1000} {
		checkStripe(t, "Run", workers, N, func(fn func(i, w int)) { Run(workers, fn) })
		width := Width(workers)
		for _, n := range []int{0, 1, width - 1, width, width + 1, 3*width + 2, 1000} {
			checkStripe(t, "Slots", workers, n, func(fn func(i, w int)) { Slots(workers, n, fn) })
		}
	}
}

func TestWidth(t *testing.T) {
	for workers, want := range map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 63: 63, 64: 64, 65: 64, 1000: 64} {
		if got := Width(workers); got != want {
			t.Errorf("Width(%d) = %d, want %d", workers, got, want)
		}
	}
}

// TestOf pins the node→shard formula: every per-shard RNG stream, wheel
// bucket and pinned trace is keyed by it.
func TestOf(t *testing.T) {
	for v, want := range map[ident.NodeID]int{0: 0, 1: 1, 63: 63, 64: 0, 65: 1, 20000: 20000 % 64, ident.NodeID(^uint32(0)): 63} {
		if got := Of(v); got != want {
			t.Errorf("Of(%d) = %d, want %d", v, got, want)
		}
	}
}
