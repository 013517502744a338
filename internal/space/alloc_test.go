package space_test

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/ident"
	"repro/internal/mobility"
	"repro/internal/space"
)

// TestDeltaRebuildAllocations pins what one delta rebuild of a parked
// commuter world allocates: n = 2 000, 2 % movers, the soak's range, side
// and tick, past a warm-up that grows every scratch buffer. A rebuild
// allocates per step, not per row: the graph header, the arena of the
// updated rows, the arena of the mirror-patched rows and the row scan's
// shard.Run closure (measured 4); the ceiling leaves one for a scratch
// buffer or a bucket that grows. A fresh slice per mirror-patched row
// again measures 19.
func TestDeltaRebuildAllocations(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector changes what allocates; CI runs this test without it")
			}
		}
	}
	const n, maxAllocs = 2000, 5
	side := 2.7 * math.Sqrt(n)
	w := space.NewWorld(2.5)
	w.TrackRows()
	ids := make([]ident.NodeID, n)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	rng := rand.New(rand.NewSource(1))
	mob := &mobility.Commuter{Side: side, SpeedMin: 0.5, SpeedMax: 2, Pause: 1, ActiveFraction: 0.02}
	mob.Init(w, ids, rng)
	g := w.SymmetricGraph()
	full := 0
	step := func() {
		mob.Step(w, 0.2, rng)
		g.Retire()
		prev := g
		g = w.SymmetricGraph()
		if _, ok := w.RowsChanged(prev); !ok {
			full++
		}
		w.DrainRows(g)
	}
	for range 50 {
		step()
	}
	full = 0
	allocs := testing.AllocsPerRun(200, step)
	if full > 0 {
		t.Fatalf("%d of the measured rebuilds were full ones, not deltas", full)
	}
	t.Logf("%.2f allocations per delta rebuild (ceiling %d)", allocs, maxAllocs)
	if allocs > maxAllocs {
		t.Fatalf("a delta rebuild allocates %.2f times, above the ceiling %d", allocs, maxAllocs)
	}
}
