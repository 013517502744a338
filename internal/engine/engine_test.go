package engine

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/shard"
	"repro/internal/space"
)

// fingerprint renders a snapshot bit-exactly: every node's view in
// ascending order plus the topology's edge set.
func fingerprint(s metrics.Snapshot) string {
	b := make([]byte, 0, 512)
	for _, v := range s.G.Nodes() {
		b = strconv.AppendUint(b, uint64(v), 10)
		b = append(b, '>')
		for _, u := range s.G.Neighbors(v) {
			b = strconv.AppendUint(b, uint64(u), 10)
			b = append(b, ',')
		}
		b = append(b, '|')
		vw := s.Views[v]
		for _, u := range setToSorted(vw) {
			b = strconv.AppendUint(b, uint64(u), 10)
			b = append(b, ',')
		}
		b = append(b, ';')
	}
	return string(b)
}

func setToSorted(m map[ident.NodeID]bool) []ident.NodeID {
	out := make([]ident.NodeID, 0, len(m))
	for v := ident.NodeID(0); len(out) < len(m); v++ {
		if m[v] {
			out = append(out, v)
		}
	}
	return out
}

// scenario builds one run of the given worker width: a mobile spatial
// topology, a lossy channel, jitter and randomized sends all at once, so
// every RNG consumer (global stream and per-shard streams) is exercised,
// plus mid-run churn to cover the wheels' add/remove paths.
func scenario(workers int) []string {
	w := space.NewWorld(6)
	ids := make([]ident.NodeID, 14)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	topo := NewSpatialTopology(w, &mobility.Waypoint{Side: 14, SpeedMin: 0.5, SpeedMax: 2, Pause: 1},
		0.2, ids, rand.New(rand.NewSource(99)))
	e := New(Params{
		Cfg:             core.Config{Dmax: 3},
		Ts:              2,
		Tc:              4,
		Channel:         radio.Lossy{P: 0.2},
		Jitter:          true,
		RandomizedSends: true,
		Seed:            7,
		Workers:         workers,
	}, topo)
	var out []string
	for r := 1; r <= 30; r++ {
		e.StepRound()
		switch r {
		case 10:
			e.RemoveNode(3)
			w.Remove(3)
		case 18:
			w.Place(20, space.Point{X: 7, Y: 7})
			e.AddNode(20)
		}
		out = append(out, fingerprint(metrics.SnapshotOf(e)))
	}
	return out
}

// TestDeterministicAcrossWorkersAndProcs is the engine's core contract:
// the sequential path (Workers ≤ 1) and the parallel engine produce
// bit-identical per-round snapshots for the same seed, at GOMAXPROCS 1
// and 4 alike.
func TestDeterministicAcrossWorkersAndProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	want := scenario(1) // the sequential path
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 4, shard.N + 5} {
			got := scenario(workers)
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("GOMAXPROCS=%d workers=%d: round %d diverges:\n seq: %s\n par: %s",
						procs, workers, r+1, want[r], got[r])
				}
			}
		}
	}
}

// TestParallelMatchesSequentialStatic pins the same contract on the
// static-topology fast path (no mobility, perfect channel, fixed phases)
// where the RNG is barely consumed and the wheels do all the scheduling.
func TestParallelMatchesSequentialStatic(t *testing.T) {
	run := func(workers int) []string {
		e := NewStatic(Params{Cfg: core.Config{Dmax: 4}, Seed: 3, Workers: workers}, graph.Line(30))
		var out []string
		for r := 0; r < 40; r++ {
			e.StepRound()
			out = append(out, fingerprint(metrics.SnapshotOf(e)))
		}
		return out
	}
	seq, par := run(1), run(4)
	for r := range seq {
		if seq[r] != par[r] {
			t.Fatalf("round %d diverges", r+1)
		}
	}
}

// TestEngineConvergesParallel sanity-checks that a parallel run still
// satisfies the legitimacy predicate (the protocol semantics survived the
// phase split).
func TestEngineConvergesParallel(t *testing.T) {
	e := NewStatic(Params{Cfg: core.Config{Dmax: 3}, Seed: 1, Workers: 4}, graph.Line(10))
	if _, ok := metrics.RunUntilConverged(e, 3, 400, 3); !ok {
		t.Fatalf("no convergence: %v", metrics.SnapshotOf(e).Groups())
	}
	if !metrics.SnapshotOf(e).Converged(3) {
		t.Fatal("snapshot not legitimate")
	}
}

// TestSnapshotCacheTracksMutation guards the snapshot hand-off: a link
// cut in the static graph must be visible in the next snapshot while
// snapshots taken before the cut keep the old topology — although, with
// every node live, they share the topology's storage instead of copying
// it.
func TestSnapshotCacheTracksMutation(t *testing.T) {
	// Over both storage forms of the topology: a generator's packed rows
	// (what a bulk build — a mobile world's rebuild — hands the engine too)
	// and a delta child's rows under their own header.
	for _, g := range []*graph.G{graph.Line(6), graph.ApplyDelta(graph.Line(6), nil, nil)} {
		topo := &StaticTopology{G: g}
		e := New(Params{Cfg: core.Config{Dmax: 4}, Seed: 1}, topo)
		e.StepRound()
		before := metrics.SnapshotOf(e)
		if !before.G.HasEdge(3, 4) {
			t.Fatal("edge missing before cut")
		}
		if a, b := g.NeighborsView(3), before.G.NeighborsView(3); &a[0] != &b[0] {
			t.Fatal("all-live snapshot should share the topology's rows")
		}
		mid := metrics.SnapshotOf(e)
		if mid.G != before.G || mid.G != g {
			t.Fatal("an unchanged all-live topology should be served itself")
		}
		topo.Edit(func(r *graph.Ref) { r.RemoveEdge(3, 4) })
		after := metrics.SnapshotOf(e)
		if after.G.HasEdge(3, 4) || topo.G == g {
			t.Fatal("cut not reflected in fresh snapshot, or made in place")
		}
		topo.Edit(func(r *graph.Ref) {
			r.AddNode(7)
			r.RemoveNode(1)
		})
		if !before.G.HasEdge(3, 4) || !before.G.HasEdge(1, 2) || before.G.HasNode(7) || !g.Equal(graph.Line(6)) {
			t.Fatal("held snapshot was changed by a later topology edit")
		}
		e.RemoveNode(6)
		if metrics.SnapshotOf(e).G.HasNode(6) {
			t.Fatal("removed node still in snapshot graph")
		}
	}
}

// TestSnapshotGraphAllLiveIsZeroCopy pins the cost of the per-round
// topology hand-off in a dynamic network, where the topology hands out a
// new graph on every tick: with every node live the restriction is the
// topology's graph itself, held, and costs nothing.
func TestSnapshotGraphAllLiveIsZeroCopy(t *testing.T) {
	const n = 2000
	srcs := [2]*graph.G{graph.Grid(n/50, 50), graph.Grid(n/50, 50)}
	topo := &StaticTopology{G: srcs[0]}
	e := New(Params{Cfg: core.Config{Dmax: 3}, Seed: 1}, topo)
	call := 0
	step := func() {
		topo.G = srcs[call%2]
		call++
		if got := e.SnapshotGraph(); got != topo.G {
			t.Fatalf("call %d: restricted graph %v of %v is not the topology's", call, got, topo.G)
		}
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("all-live snapshot graph: %.0f allocs per call, want 0", allocs)
	}
}

// TestLiveBorrowsWhenEveryNodeIsLive: LiveGraph is the topology's graph
// itself — not held, so a retired graph still hands its row header to its
// ApplyDelta child — exactly when SnapshotGraph would be the identity
// restriction. With a node removed from the engine but not from the
// static topology, both serve a copy without it.
func TestLiveBorrowsWhenEveryNodeIsLive(t *testing.T) {
	src := graph.ApplyDelta(graph.Line(6), nil, nil)
	e := New(Params{Cfg: core.Config{Dmax: 3}, Seed: 1}, &StaticTopology{G: src})
	if got := e.LiveGraph(); got != src {
		t.Fatal("every node live: LiveGraph must serve the topology's graph itself")
	}
	e.RemoveNode(6)
	want := graph.Line(5)
	for name, got := range map[string]*graph.G{"LiveGraph": e.LiveGraph(), "SnapshotGraph": e.SnapshotGraph()} {
		if got == src || !got.Equal(want) {
			t.Fatalf("node 6 removed from the engine: %s must serve a copy without it, got %v", name, got)
		}
	}
	src.Retire()
	child := graph.ApplyDelta(src, nil, nil)
	defer func() {
		if recover() == nil || !child.Equal(graph.Line(6)) {
			t.Fatal("a borrowed, retired graph should have handed its header to its child")
		}
	}()
	graph.RefOf(src)
}

// TestHeldSnapshotOutlivesEdit: a snapshot taken before Edit cuts a link
// inside a group keeps that link through the cut and the rounds after it,
// so ΠT between it and the snapshot taken just after the cut, in either
// order, is what metrics.Topological says on two graphs built apart from
// the engine. This is why neither the tracker nor the experiments copy a
// graph they hold.
func TestHeldSnapshotOutlivesEdit(t *testing.T) {
	const dmax = 3
	line := graph.Line(8)
	r := graph.RefOf(line)
	r.RemoveEdge(2, 3)
	cut := graph.FromRef(r)

	topo := &StaticTopology{G: graph.Line(8)}
	e := New(Params{Cfg: core.Config{Dmax: dmax}, Seed: 42}, topo)
	if _, ok := metrics.RunUntilConverged(e, dmax, 200, 3); !ok {
		t.Fatal("line did not converge")
	}
	before := metrics.SnapshotOf(e)
	topo.Edit(func(r *graph.Ref) { r.RemoveEdge(2, 3) })
	after := metrics.SnapshotOf(e)
	for i := 0; i < 5; i++ {
		e.StepRound()
		metrics.SnapshotOf(e)
	}
	if !before.G.HasEdge(2, 3) || !before.G.Equal(line) || !after.G.Equal(cut) {
		t.Fatal("a held snapshot's graph changed after the cut")
	}
	ref := func(s metrics.Snapshot, g *graph.G) metrics.Snapshot { return metrics.Snapshot{G: g, Views: s.Views} }
	fwd := metrics.Topological(ref(before, line), ref(after, cut), dmax)
	back := metrics.Topological(ref(after, cut), ref(before, line), dmax)
	if fwd || !back {
		t.Fatalf("the cut must stretch a group one way and not the other: ΠT %v, reversed %v", fwd, back)
	}
	if got := metrics.Topological(before, after, dmax); got != fwd {
		t.Fatalf("ΠT(before, after) = %v, on graphs built apart %v", got, fwd)
	}
	if got := metrics.Topological(after, before, dmax); got != back {
		t.Fatalf("ΠT(after, before) = %v, on graphs built apart %v", got, back)
	}
}

// TestWheelsMatchModuloScan cross-checks the timer wheels against the
// seed's per-node modulo formula over every phase and tick.
func TestWheelsMatchModuloScan(t *testing.T) {
	const period = 5
	w := newPeriodicWheel(period)
	phases := map[ident.NodeID]int{1: 0, 2: 1, 3: 4, 4: 0, 70: 3, 130: 3}
	for v, p := range phases {
		w.add(wheelEnt{id: v, slot: int32(v)}, p)
	}
	for tick := 0; tick < 3*period; tick++ {
		want := map[ident.NodeID]bool{}
		for v, p := range phases {
			if (tick+p)%period == 0 {
				want[v] = true
			}
		}
		got := map[ident.NodeID]bool{}
		for _, b := range w.due(tick) {
			for _, v := range b {
				got[v.id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("tick %d: due=%v want=%v", tick, got, want)
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("tick %d: missing %v", tick, v)
			}
		}
	}
	w.remove(70, phases[70])
	for _, b := range w.due(2) { // slot of phase 3 at period 5
		for _, v := range b {
			if v.id == 70 {
				t.Fatal("removed node still scheduled")
			}
		}
	}
}

func TestRosterOrder(t *testing.T) {
	r := NewRoster(0)
	for _, v := range []ident.NodeID{5, 1, 9, 3, 7} {
		r.Add(v)
	}
	r.Add(3) // duplicate
	r.Remove(9)
	want := []ident.NodeID{1, 3, 5, 7}
	ids := r.IDs()
	if len(ids) != len(want) {
		t.Fatalf("ids=%v", ids)
	}
	for i, v := range want {
		if ids[i] != v {
			t.Fatalf("ids=%v want=%v", ids, want)
		}
	}
	if r.Has(9) || !r.Has(7) || r.Len() != 4 {
		t.Fatal("membership bookkeeping broken")
	}
}

// TestSpatialAdvanceReusesGraphWhenStationary pins the moved-nothing fast
// path: with a stationary mobility model the world generation does not
// advance, Advance keeps the graph pointer-identical, and the engine's
// receiver cache key (the graph pointer) therefore stays hot.
func TestSpatialAdvanceReusesGraphWhenStationary(t *testing.T) {
	w := space.NewWorld(5)
	ids := []ident.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	topo := NewSpatialTopology(w, &mobility.Static{Side: 10}, 0.1, ids, rand.New(rand.NewSource(1)))
	e := New(Params{Cfg: core.Config{Dmax: 3}, Seed: 1}, topo)
	g0 := topo.Graph()
	gen0 := w.Generation()
	e.StepTicks(20)
	if topo.Graph() != g0 {
		t.Fatal("stationary advance must keep the cached graph pointer")
	}
	if w.Generation() != gen0 {
		t.Fatal("stationary advance must not bump the world generation")
	}

	// A zero-DT mobile model is just as stationary.
	w2 := space.NewWorld(5)
	topo2 := NewSpatialTopology(w2, &mobility.Waypoint{Side: 10, SpeedMin: 1, SpeedMax: 2},
		0, ids, rand.New(rand.NewSource(1)))
	e2 := New(Params{Cfg: core.Config{Dmax: 3}, Seed: 1}, topo2)
	g0 = topo2.Graph()
	e2.StepTicks(20)
	if topo2.Graph() != g0 {
		t.Fatal("zero-DT advance must keep the cached graph pointer")
	}
}
