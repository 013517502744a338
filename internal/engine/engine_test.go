package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
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

// edgeChannel wraps a channel with the deliver partition's edge cases:
// every tenth call it delivers nothing; every third it replays each
// delivery (the copy is elided), which takes the buffer past 64 and off
// its multiples; and on every call that delivers it fabricates
// deliveries from and to node 3 (removed mid-run) and from node 20 (a
// member only later, and then unbuilt until its first send).
type edgeChannel struct {
	radio.Channel
	tick int
}

func (c *edgeChannel) AppendDeliverSlot(txs []radio.Tx, rng *rand.Rand, buf []radio.Delivery) []radio.Delivery {
	c.tick++
	n := len(buf)
	buf = c.Channel.AppendDeliverSlot(txs, rng, buf)
	switch {
	case c.tick%10 == 0:
		return buf[:n]
	case c.tick%3 == 0:
		buf = append(buf, buf[n:]...)
	}
	return append(buf, radio.Delivery{From: 3, To: 1}, radio.Delivery{From: 1, To: 3}, radio.Delivery{From: 20, To: 2})
}

// scenario builds one run of the given worker width: a mobile spatial
// topology, a lossy channel, jitter and randomized sends all at once, so
// every RNG consumer (global stream and per-shard streams) is exercised,
// plus mid-run churn to cover the wheels' add/remove paths. The channel
// adds the deliver partition's edge cases (edgeChannel), node 5 lies for
// a while, and a sender of another process reaches nodes 2 and 3 through
// external deliveries. It returns, per round, the snapshot's fingerprint
// and, per tick, the delivery counters and every member's inbox: its
// size, its read digest and its pending signature; and the lengths of the
// delivery buffer the deliver phase partitioned.
func scenario(workers int) (rounds, ticks []string, lens []int) {
	w := space.NewWorld(6)
	ids := make([]ident.NodeID, 14)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	topo := NewSpatialTopology(w, &mobility.Waypoint{Side: 14, SpeedMin: 0.5, SpeedMax: 2, Pause: 1},
		0.2, ids, rand.New(rand.NewSource(99)))
	cfg := core.Config{Dmax: 3}
	e := New(Params{
		Cfg:             cfg,
		Ts:              2,
		Tc:              4,
		Channel:         &edgeChannel{Channel: radio.Lossy{P: 0.2}},
		Jitter:          true,
		RandomizedSends: true,
		Seed:            7,
		Workers:         workers,
	}, topo)
	lie, foreign := core.NewNode(5, cfg).BuildMessage(), core.NewNode(90, cfg).BuildMessage()
	reg := e.Introspect()
	for r := 1; r <= 30; r++ {
		for range e.P.Tc {
			var ext []ExternalDelivery
			if r >= 4 {
				ver := uint64(e.Tick() / 8)
				ext = []ExternalDelivery{{To: 2, From: 90, Gen: 1, Ver: ver, Msg: &foreign}, {To: 3, From: 90, Gen: 1, Ver: ver, Msg: &foreign}}
			}
			e.AdvancePhase()
			e.BuildPhase()
			e.FinishTick(ext)
			lens = append(lens, len(e.delivBuf))
			b := fmt.Appendf(nil, "%d %d:", reg.Get(introspect.CtrDeliveries), reg.Get(introspect.CtrDeliveriesElided))
			for _, v := range e.Order() {
				rec := &e.recs[e.SlotOf(v)]
				b = fmt.Appendf(b, " %v %d %x %v", v, rec.n.PendingMessages(), rec.n.InboxReadDigest(), rec.pending)
			}
			ticks = append(ticks, string(b))
		}
		switch r {
		case 5:
			e.SetLie(5, &lie)
		case 10:
			e.RemoveNode(3)
			w.Remove(3)
		case 15:
			e.ClearLie(5)
		case 18:
			w.Place(20, space.Point{X: 7, Y: 7})
			e.AddNode(20)
		}
		rounds = append(rounds, fingerprint(metrics.SnapshotOf(e)))
	}
	return rounds, ticks, lens
}

// TestDeterministicAcrossWorkersAndProcs is the engine's core contract:
// the sequential path (Workers ≤ 1) and the parallel engine produce
// bit-identical per-round snapshots, and per-tick inboxes, inbox
// signatures and delivery counters, for the same seed, at GOMAXPROCS 1
// and 4 alike — over every edge case of the deliver partition: no
// delivery at all, fewer than its 64 chunks, more and not a multiple, a
// lossy channel, senders and receivers that are not members, a lie and
// external deliveries.
func TestDeterministicAcrossWorkersAndProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	wantRounds, wantTicks, lens := scenario(1) // the sequential path
	var empty, short, long bool
	for _, n := range lens {
		empty = empty || n == 0
		short = short || (n > 0 && n < shard.N)
		long = long || (n > shard.N && n%shard.N != 0)
	}
	if !empty || !short || !long {
		t.Fatalf("delivery buffer lengths %v: want an empty one, one below %d and one above it off its multiples", lens, shard.N)
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 4, 8, shard.N + 5} {
			rounds, ticks, _ := scenario(workers)
			for i := range wantTicks {
				if ticks[i] != wantTicks[i] {
					t.Fatalf("GOMAXPROCS=%d workers=%d: tick %d's deliveries diverge:\n seq: %s\n par: %s",
						procs, workers, i+1, wantTicks[i], ticks[i])
				}
			}
			for r := range wantRounds {
				if rounds[r] != wantRounds[r] {
					t.Fatalf("GOMAXPROCS=%d workers=%d: round %d diverges:\n seq: %s\n par: %s",
						procs, workers, r+1, wantRounds[r], rounds[r])
				}
			}
		}
	}
}

// TestNewIndependentOfWidth holds New's per-shard build to the width
// contract with every draw it makes on: jittered phases on the global
// stream, first send instants on the shards' streams. Records, snapshots
// and registries are equal at widths 1, 3 and 8, right after New and
// after each of 10 rounds.
func TestNewIndependentOfWidth(t *testing.T) {
	run := func(workers int) (recs []nodeRec, rounds []string) {
		p := Params{Cfg: core.Config{Dmax: 3}, Ts: 2, Tc: 4, Jitter: true, RandomizedSends: true, Seed: 11, Workers: workers}
		e := NewStatic(p, graph.Grid(20, 20))
		for i := range e.recs {
			recs = append(recs, fresh(&e.recs[i]))
		}
		for range 10 {
			e.StepRound()
			rounds = append(rounds, fmt.Sprint(fingerprint(metrics.SnapshotOf(e)), e.Introspect().Snapshot().Counters))
		}
		return recs, rounds
	}
	wantRecs, want := run(1)
	for _, workers := range []int{3, 8} {
		recs, rounds := run(workers)
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Fatalf("workers=%d: New built other records than at width 1", workers)
		}
		for r := range want {
			if rounds[r] != want[r] {
				t.Fatalf("workers=%d: round %d diverges:\n seq: %s\n par: %s", workers, r+1, want[r], rounds[r])
			}
		}
	}
}

// fresh is a just-joined record with what may differ between two that
// joined alike left out: the node (compared by digest), the incarnation
// stamp, the buffers' capacities (compared empty) and the memo's dead
// entries past memoN.
func fresh(rec *nodeRec) nodeRec {
	c := *rec
	c.n, c.gen = nil, 0
	if len(c.recv)+len(c.pending)+len(c.consumed) != 0 {
		panic(fmt.Sprintf("node %v joined with buffered state", c.id))
	}
	c.recv, c.pending, c.consumed = nil, nil, nil
	c.memo = [memoCap]memoEnt{}
	return c
}

// TestAddNodeMatchesNew: a node AddNode joins mid-run, into a recycled
// slot and into a fresh one, holds the same record New gives it, and is
// on the same wheel slots.
func TestAddNodeMatchesNew(t *testing.T) {
	p := Params{Cfg: core.Config{Dmax: 3}, Seed: 2, Workers: 4}
	g := graph.Grid(6, 6)
	bulk := NewStatic(p, g)
	joined := New(p, noNodes{&StaticTopology{G: g}})
	for _, v := range g.Nodes() {
		if v != 7 && v != 29 {
			joined.AddNode(v)
		}
	}
	joined.StepTicks(3 * joined.P.Tc)
	recycled := joined.SlotOf(12)
	joined.RemoveNode(12)
	for _, v := range []ident.NodeID{7, 29} {
		joined.AddNode(v)
		a, b := &bulk.recs[bulk.SlotOf(v)], &joined.recs[joined.SlotOf(v)]
		if got, want := fresh(b), fresh(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %v: joined with\n%+v\nNew gave it\n%+v", v, got, want)
		}
		if a.n.StateDigest() != b.n.StateDigest() || a.n.Version() != b.n.Version() {
			t.Fatalf("node %v joined as %s, New built it as %s", v, b.n, a.n)
		}
		if b.gen != joined.memberGen {
			t.Fatalf("node %v joined with stamp %d, want the newest, %d", v, b.gen, joined.memberGen)
		}
		for name, w := range map[string][2]*periodicWheel{"send": {bulk.sendWheel, joined.sendWheel}, "compute": {bulk.computeWheel, joined.computeWheel}} {
			if !onWheel(w[0], v, a.phase) || !onWheel(w[1], v, b.phase) {
				t.Fatalf("node %v is not on its %s wheel slot", v, name)
			}
		}
	}
	if joined.SlotOf(7) != recycled || int(joined.SlotOf(29)) != len(joined.recs)-1 {
		t.Fatalf("slots %d and %d: want the recycled %d and the fresh %d", joined.SlotOf(7), joined.SlotOf(29), recycled, len(joined.recs)-1)
	}
}

// onWheel reports whether v is in its shard's bucket of phase's slot.
func onWheel(w *periodicWheel, v ident.NodeID, phase int) bool {
	for _, ent := range w.slots[w.slotOf(phase)][shard.Of(v)] {
		if ent.id == v {
			return true
		}
	}
	return false
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
