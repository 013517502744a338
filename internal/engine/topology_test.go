package engine

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
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
	topo.Advance(rng) // the bulk-built base's child: it takes the header the lineage keeps
	topo.Advance(rng)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		prev := topo.Graph()
		topo.Advance(rng)
		if _, delta := topo.World.RowsChanged(prev); !delta {
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

// allMovingTopology is random waypoint without pauses at n = 2 000, mean
// degree ≈ 9: every node moves every tick, so every tick rebuilds the
// whole graph.
func allMovingTopology(seed int64) (*SpatialTopology, *rand.Rand) {
	const n = 2000
	ids := make([]ident.NodeID, n)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &mobility.Waypoint{Side: 1.5 * math.Sqrt(n), SpeedMin: 0.5, SpeedMax: 2}
	return NewSpatialTopology(space.NewWorld(2.5), m, 0.2, ids, rng), rng
}

// TestRetiringTopologyReusesPackedStorage is the full-rebuild twin of
// TestRetiringTopologyKeepsOneRowHeader: the retired graph's row header
// and arena become the next graph's, so a full tick allocates a graph
// value and the odd regrowth, not O(n + edges). 50 full ticks: under a quarter
// of one arena a tick.
func TestRetiringTopologyReusesPackedStorage(t *testing.T) {
	const ticks = 50
	topo, rng := allMovingTopology(3)
	topo.Advance(rng)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		prev := topo.Graph()
		topo.Advance(rng)
		if _, delta := topo.World.RowsChanged(prev); delta {
			t.Fatalf("tick %d: a delta tick", i)
		}
	}
	runtime.ReadMemStats(&after)
	arena := uint64(8 * topo.Graph().NumEdges()) // two 4-byte entries an edge
	if perTick := (after.TotalAlloc - before.TotalAlloc) / ticks; perTick > arena/4 {
		t.Fatalf("%d bytes allocated a full tick, more than a quarter of an arena (%d)", perTick, arena/4)
	} else {
		t.Logf("%d bytes a full tick, arena %d", perTick, arena)
	}
}

// TestFullRebuildReceiversMatchBruteForce: a full rebuild rewrites the
// storage it takes over, so one tick's row can sit in the very window
// (backing and length) another node's — or the same node's former — row
// sat in before; only the row era tells the two apart. Every tick, each
// due sender's transmitted receivers must equal a brute-force CanReach
// scan over the live nodes.
func TestFullRebuildReceiversMatchBruteForce(t *testing.T) {
	topo, _ := allMovingTopology(4)
	e := New(Params{Cfg: core.Config{Dmax: 3}, Seed: 4, Ts: 2, Jitter: true, Workers: 2}, topo)
	var want []ident.NodeID
	for tick := 0; tick < 12; tick++ {
		e.AdvancePhase()
		txs := e.BuildPhase()
		if len(txs) < 500 {
			t.Fatalf("tick %d: %d senders due", tick, len(txs))
		}
		for _, tx := range txs {
			want = want[:0]
			for _, u := range e.Order() {
				if topo.World.CanReach(tx.Sender, u) {
					want = append(want, u)
				}
			}
			if !slices.Equal(tx.Receivers, want) {
				t.Fatalf("tick %d: %v transmits to %v, reachable %v", tick, tx.Sender, tx.Receivers, want)
			}
		}
		e.FinishTick(nil)
	}
}

// TestStaticEditReceiversMatchGraph: a static topology's receiver sets
// come from the same graph rows as a spatial one's. Across an Edit that
// cuts one link and adds another, with membership unchanged, every due
// sender's transmitted receivers must equal its row of the edited graph
// filtered to members (node 12 has left the engine but stays in the
// graph), so a cache kept on the membership generation alone, without
// Row.Same, shows as stale receivers at the four endpoints.
func TestStaticEditReceiversMatchGraph(t *testing.T) {
	topo := &StaticTopology{G: graph.Grid(6, 6)}
	e := New(Params{Cfg: core.Config{Dmax: 3}, Seed: 4, Ts: 2, Jitter: true, Workers: 2}, topo)
	e.RemoveNode(12)
	e.StepTicks(2 * e.P.Tc)
	if topo.G.HasEdge(1, 36) || !topo.G.HasEdge(8, 9) {
		t.Fatal("the grid does not have the links the edit assumes")
	}
	topo.Edit(func(r *graph.Ref) {
		r.RemoveEdge(8, 9)
		r.AddEdge(1, 36)
	})
	refills := e.Introspect().Get(introspect.CtrRecvRowRefills)
	seen := map[ident.NodeID]bool{}
	var want []ident.NodeID
	for tick := 0; tick < 2*e.P.Ts; tick++ {
		e.AdvancePhase()
		for _, tx := range e.BuildPhase() {
			seen[tx.Sender] = true
			want = e.appendLive(want[:0], topo.G.NeighborsView(tx.Sender))
			if !slices.Equal(tx.Receivers, want) {
				t.Fatalf("tick %d: %v transmits to %v, its row of the edited graph holds %v", tick, tx.Sender, tx.Receivers, want)
			}
		}
		e.FinishTick(nil)
	}
	for _, v := range []ident.NodeID{1, 8, 9, 36} {
		if !seen[v] {
			t.Fatalf("endpoint %v never sent after the edit", v)
		}
	}
	if got := e.Introspect().Get(introspect.CtrRecvRowRefills) - refills; got < 4 {
		t.Fatalf("%d receiver sets refilled after the edit, want at least the four endpoints'", got)
	}
	if got := e.Introspect().Counters()["recv_rebuilds"]; got != 0 {
		t.Fatalf("recv_rebuilds = %d, want 0", got)
	}
}
