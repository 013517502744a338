package space_test

import (
	"math"
	"math/rand"
	"runtime"
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
	skipUnderRace(t)
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

// TestChurnRebuildAllocations pins what one full rebuild after a
// membership change allocates: n = 2 000 nodes at the soak's density, of
// 2 050 IDs; each rebuild follows the departure of a random present node
// and the arrival of a random absent one, and retires the graph it
// replaces, as SpatialTopology.Advance does. The new graph takes over its
// predecessor's roster and patches it, so a rebuild allocates the graph
// value, the world's fresh sorted roster (8 KB, TestNodesCachedRoster),
// the row scan's shard.Run closure and now and then a grown buffer:
// measured 8 907 bytes in 3.09 objects, well under one copy of the node
// index, whose page alone is 32 KB here. A copied roster again measures
// 49 890 bytes in 10.09 objects.
func TestChurnRebuildAllocations(t *testing.T) {
	skipUnderRace(t)
	const n, spare, runs = 2000, 50, 400
	const maxBytes, maxAllocs = 12 << 10, 5
	side := 2.7 * math.Sqrt(n)
	rng := rand.New(rand.NewSource(1))
	w := space.NewWorld(2.5)
	place := func(v ident.NodeID) { w.Place(v, space.Point{X: rng.Float64() * side, Y: rng.Float64() * side}) }
	absent := make([]ident.NodeID, 0, spare)
	for v := ident.NodeID(1); v <= n+spare; v++ {
		if v <= n {
			place(v)
		} else {
			absent = append(absent, v)
		}
	}
	g := w.SymmetricGraph()
	step := func() {
		nodes := w.Nodes()
		gone := nodes[rng.Intn(len(nodes))]
		k := rng.Intn(len(absent))
		w.Remove(gone)
		place(absent[k])
		absent[k] = gone
		g.Retire()
		g = w.SymmetricGraph()
	}
	for range 50 {
		step()
	}
	var before, after runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.ReadMemStats(&before)
	for range runs {
		step()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.0f bytes and %.2f allocations per churned rebuild (ceilings %d and %d)", bytes, allocs, maxBytes, maxAllocs)
	if g.NumNodes() != n {
		t.Fatalf("the graph has %d nodes, want %d", g.NumNodes(), n)
	}
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("a churned rebuild allocates %.0f bytes in %.2f objects, above the ceilings %d and %d", bytes, allocs, maxBytes, maxAllocs)
	}
}

// skipUnderRace skips an allocation pin under the race detector, which
// changes what allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector changes what allocates; CI runs this test without it")
			}
		}
	}
}
