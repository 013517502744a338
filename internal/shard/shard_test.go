package shard

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ident"
)

// checkClaims runs one fan-out over count items and holds it to the
// claiming contract: every index exactly once, participant indices below
// min(Width(workers), count), and no participant running two items at
// once (its index is its own for the whole call).
func checkClaims(t *testing.T, name string, workers, count int, run func(fn func(i, w int))) {
	t.Helper()
	visits := make([]atomic.Int32, count)
	busy := make([]atomic.Int32, N)
	var outOfRange, badWorker, shared atomic.Int32
	width := min(Width(workers), count)
	run(func(i, w int) {
		if i < 0 || i >= count {
			outOfRange.Add(1)
			return
		}
		visits[i].Add(1)
		if w < 0 || w >= max(width, 1) {
			badWorker.Add(1)
			return
		}
		if busy[w].Add(1) != 1 {
			shared.Add(1)
		}
		busy[w].Add(-1)
	})
	if n := outOfRange.Load(); n != 0 {
		t.Errorf("%s(workers %d, n %d): %d calls with an index outside [0, n)", name, workers, count, n)
	}
	if n := badWorker.Load(); n != 0 {
		t.Errorf("%s(workers %d, n %d): %d calls with a participant outside [0, %d)", name, workers, count, n, width)
	}
	if n := shared.Load(); n != 0 {
		t.Errorf("%s(workers %d, n %d): %d calls overlapped another on the same participant", name, workers, count, n)
	}
	for i := range visits {
		if n := visits[i].Load(); n != 1 {
			t.Errorf("%s(workers %d, n %d): index %d visited %d times", name, workers, count, i, n)
		}
	}
}

func TestRunAndSlotsClaimEachItemOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 64, 65, 1000} {
		checkClaims(t, "Run", workers, N, func(fn func(i, w int)) { Run(workers, fn) })
		width := Width(workers)
		for _, n := range []int{0, 1, width - 1, width, width + 1, 3*width + 2, 1000} {
			checkClaims(t, "Slots", workers, n, func(fn func(i, w int)) { Slots(workers, n, fn) })
		}
	}
}

// TestSlotsConcurrentAndNested runs two fan-outs from two goroutines at
// once, each of whose items fans out again: callers that find no idle
// helper run the items themselves, so every call completes and keeps the
// contract (run it under -race).
func TestSlotsConcurrentAndNested(t *testing.T) {
	const outer, inner = 16, 8
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ran [outer][inner]atomic.Int32
			Slots(4, outer, func(i, w int) {
				if w >= 4 {
					t.Errorf("outer participant %d at width 4", w)
				}
				Slots(2, inner, func(k, w int) {
					if w >= 2 {
						t.Errorf("inner participant %d at width 2", w)
					}
					ran[i][k].Add(1)
				})
			})
			for i := range ran {
				for k := range ran[i] {
					if n := ran[i][k].Load(); n != 1 {
						t.Errorf("item (%d, %d) ran %d times", i, k, n)
					}
				}
			}
		}()
	}
	wg.Wait()
	if idle, started := helpers.idle.Load(), helpers.started; int(idle) != started {
		t.Errorf("%d of %d helpers idle after every call returned", idle, started)
	}
}

// TestSlotsItemsAreClaimed proves the assignment is dynamic: at width 2,
// item 0 waits until every other item has run. Under a static stripe the
// items sharing its worker could never run and the wait would time out;
// claimed, the other participant takes them all.
func TestSlotsItemsAreClaimed(t *testing.T) {
	const n = 9
	var others atomic.Int32
	allDone := make(chan struct{})
	ranBeforeTimeout := int32(-1)
	Slots(2, n, func(i, w int) {
		if i != 0 {
			if others.Add(1) == n-1 {
				close(allDone)
			}
			return
		}
		select {
		case <-allDone:
		case <-time.After(10 * time.Second):
			ranBeforeTimeout = others.Load()
		}
	})
	if ranBeforeTimeout >= 0 {
		t.Fatalf("item 0 waited 10 s for the other %d items and %d ran — items are not claimed", n-1, ranBeforeTimeout)
	}
}

// TestSlotsAllocatesLikeInline pins that a fan-out costs what running its
// items inline costs (the caller's closure) at widths 2 and 4: no
// goroutine, job record or wait state is allocated per call. Run without
// -race, which changes what allocates (the test skips under it).
func TestSlotsAllocatesLikeInline(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector changes what allocates; CI runs this test without it")
			}
		}
	}
	var sink [N]int
	fanOut := func(workers int) func() {
		return func() { Run(workers, func(s, w int) { sink[s] += w + 1 }) }
	}
	inline := testing.AllocsPerRun(100, fanOut(1))
	for _, workers := range []int{2, 4} {
		fanOut(workers)() // start the helpers
		if got := testing.AllocsPerRun(100, fanOut(workers)); got != inline {
			t.Errorf("a fan-out at width %d allocates %.2f times, inline %.2f", workers, got, inline)
		}
	}
	t.Logf("allocations per fan-out: %.0f (the caller's closure)", inline)
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
