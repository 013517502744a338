package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ident"
	"repro/internal/mobility"
	"repro/internal/space"
)

// TestRetiringTopologyKeepsOneRowHeader pins the bytes where they were: a
// SpatialTopology retires the graph it replaces, so a delta tick patches
// the lineage's one row header in place instead of copying n·24 bytes of
// it. 2 % movers at n = 2 000, 50 delta ticks: a quarter of one header a
// tick is room for the movers' rows, their mirrors and the scan — and for
// nothing that is O(n).
func TestRetiringTopologyKeepsOneRowHeader(t *testing.T) {
	const n, ticks = 2000, 50
	ids := make([]ident.NodeID, n)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	rng := rand.New(rand.NewSource(3))
	m := &mobility.Commuter{Side: 120, SpeedMin: 0.5, SpeedMax: 2, Pause: 1, ActiveFraction: 0.02}
	topo := NewSpatialTopology(space.NewWorld(2.5), m, 0.2, ids, rng)
	topo.Advance(rng) // the packed base's child: the header the lineage keeps
	topo.Advance(rng)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		prev := topo.Graph()
		topo.Advance(rng)
		if _, delta := topo.RowsChanged(prev); !delta {
			t.Fatalf("tick %d: not a delta tick", i)
		}
	}
	runtime.ReadMemStats(&after)
	if perTick := (after.TotalAlloc - before.TotalAlloc) / ticks; perTick > n*24/4 {
		t.Fatalf("%d bytes allocated a delta tick, more than a quarter of a row header (%d)", perTick, n*24/4)
	} else {
		t.Logf("%d bytes a delta tick", perTick)
	}
}
