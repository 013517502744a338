package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/space"
)

func TestStaticLineConverges(t *testing.T) {
	s := NewStatic(Params{Cfg: core.Config{Dmax: 4}, Seed: 1}, graph.Line(5))
	rounds, ok := metrics.RunUntilConverged(s, 4, 100, 3)
	if !ok {
		t.Fatalf("no convergence; snapshot=%v", metrics.SnapshotOf(s).Groups())
	}
	if rounds < 1 {
		t.Fatal("convergence cannot be instant")
	}
	snap := metrics.SnapshotOf(s)
	if snap.GroupCount() != 1 {
		t.Fatalf("groups = %v", snap.Groups())
	}
}

func TestStaticGridKeepsSafety(t *testing.T) {
	// Grids are in the metastable regime (DESIGN.md §3): full ΠM
	// convergence is not asserted, but safety must hold throughout and
	// groups must form.
	s := NewStatic(Params{Cfg: core.Config{Dmax: 3}, Seed: 2}, graph.Grid(3, 4))
	for i := 0; i < 100; i++ {
		s.StepRound()
		if !metrics.SnapshotOf(s).Safety(3) {
			t.Fatalf("safety violated at round %d: %v", i, metrics.SnapshotOf(s).Groups())
		}
	}
	if metrics.SnapshotOf(s).MeanGroupSize() < 1.5 {
		t.Fatalf("no groups formed: %v", metrics.SnapshotOf(s).Groups())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		s := NewStatic(Params{Cfg: core.Config{Dmax: 3}, Seed: 7, Jitter: true}, graph.Ring(8))
		s.StepTicks(50)
		var sizes []int
		for _, g := range metrics.SnapshotOf(s).Groups() {
			sizes = append(sizes, len(g))
		}
		return sizes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("%v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%v vs %v", a, b)
		}
	}
}

func TestJitteredTimersStillConverge(t *testing.T) {
	s := NewStatic(Params{Cfg: core.Config{Dmax: 4}, Seed: 3, Jitter: true, Ts: 1, Tc: 3}, graph.Line(6))
	if _, ok := metrics.RunUntilConverged(s, 4, 200, 3); !ok {
		t.Fatalf("no convergence with jitter; groups=%v", metrics.SnapshotOf(s).Groups())
	}
}

func TestTsTcValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Tc < Ts")
		}
	}()
	NewStatic(Params{Cfg: core.Config{Dmax: 2}, Ts: 4, Tc: 2}, graph.Line(2))
}

func TestLinkCutSplitsGroup(t *testing.T) {
	g := graph.Line(4)
	s := NewStatic(Params{Cfg: core.Config{Dmax: 3}, Seed: 4}, g)
	if _, ok := metrics.RunUntilConverged(s, 3, 100, 3); !ok {
		t.Fatal("precondition: converge first")
	}
	prev := metrics.SnapshotOf(s)
	g.RemoveEdge(2, 3)
	for i := 0; i < 30; i++ {
		s.StepRound()
	}
	snap := metrics.SnapshotOf(s)
	if snap.GroupCount() != 2 {
		t.Fatalf("after cut: %v", snap.Groups())
	}
	if !snap.Converged(3) {
		t.Fatalf("should re-converge after cut: %v", snap.Groups())
	}
	_ = prev
}

func TestNodeDepartureShrinksViews(t *testing.T) {
	g := graph.Line(3)
	s := NewStatic(Params{Cfg: core.Config{Dmax: 2}, Seed: 5}, g)
	if _, ok := metrics.RunUntilConverged(s, 2, 100, 3); !ok {
		t.Fatal("precondition")
	}
	s.RemoveNode(3)
	g.RemoveNode(3)
	for i := 0; i < 20; i++ {
		s.StepRound()
	}
	snap := metrics.SnapshotOf(s)
	if len(snap.Views) != 2 {
		t.Fatalf("views = %v", snap.Views)
	}
	if snap.Views[1][3] || snap.Views[2][3] {
		t.Fatalf("departed node still in views: %v", snap.Views)
	}
}

func TestNodeJoinMerges(t *testing.T) {
	g := graph.Line(2)
	s := NewStatic(Params{Cfg: core.Config{Dmax: 2}, Seed: 6}, g)
	if _, ok := metrics.RunUntilConverged(s, 2, 50, 3); !ok {
		t.Fatal("precondition")
	}
	g.AddEdge(2, 3)
	s.AddNode(3)
	if _, ok := metrics.RunUntilConverged(s, 2, 100, 3); !ok {
		t.Fatalf("no reconvergence: %v", metrics.SnapshotOf(s).Groups())
	}
	if metrics.SnapshotOf(s).GroupCount() != 1 {
		t.Fatalf("groups = %v", metrics.SnapshotOf(s).Groups())
	}
}

func TestSpatialTopologyConvoy(t *testing.T) {
	w := space.NewWorld(4)
	nodes := []ident.NodeID{1, 2, 3, 4}
	rngSeed := Params{Cfg: core.Config{Dmax: 3}, Seed: 8}
	topo := NewSpatialTopology(w, &mobility.Convoy{Spacing: 3, Speed: 5}, 0.1, nodes, nil)
	s := New(rngSeed, topo)
	if _, ok := metrics.RunUntilConverged(s, 3, 100, 3); !ok {
		t.Fatalf("convoy should converge: %v", metrics.SnapshotOf(s).Groups())
	}
	if metrics.SnapshotOf(s).GroupCount() != 1 {
		t.Fatalf("groups = %v", metrics.SnapshotOf(s).Groups())
	}
}

func TestLossyChannelStillConvergesSlowly(t *testing.T) {
	s := NewStatic(Params{
		Cfg: core.Config{Dmax: 3}, Seed: 9,
		Channel: radio.Lossy{P: 0.2}, Ts: 1, Tc: 4,
	}, graph.Line(4))
	if _, ok := metrics.RunUntilConverged(s, 3, 400, 3); !ok {
		t.Fatalf("no convergence under 20%% loss: %v", metrics.SnapshotOf(s).Groups())
	}
}

func TestAccounting(t *testing.T) {
	s := NewStatic(Params{Cfg: core.Config{Dmax: 2}, Seed: 10}, graph.Line(3))
	s.StepTicks(10)
	reg := s.Introspect()
	msgs, bytes, delivs := reg.Get(introspect.CtrMessagesSent), reg.Get(introspect.CtrBytesSent), reg.Get(introspect.CtrDeliveries)
	if msgs == 0 || bytes == 0 || delivs == 0 {
		t.Fatalf("accounting: msgs=%d bytes=%d deliv=%d", msgs, bytes, delivs)
	}
	if s.Tick() != 10 {
		t.Fatalf("tick = %d", s.Tick())
	}
}

func TestSnapshotExcludesDeadNodes(t *testing.T) {
	g := graph.Line(3)
	s := NewStatic(Params{Cfg: core.Config{Dmax: 2}, Seed: 11}, g)
	s.StepTicks(4)
	s.RemoveNode(2) // removed from sim but still in the graph
	snap := metrics.SnapshotOf(s)
	if _, ok := snap.Views[2]; ok {
		t.Fatal("dead node has a view")
	}
	if snap.G.HasNode(2) {
		t.Fatal("dead node still in snapshot graph")
	}
}
