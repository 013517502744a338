package workload

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func TestCorruptGhostsInjectsAndHeals(t *testing.T) {
	s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 1}, graph.Line(6))
	rng := rand.New(rand.NewSource(2))
	n := Corrupt(s, CorruptGhosts, 1.0, rng)
	if n != 6 {
		t.Fatalf("corrupted %d, want 6", n)
	}
	if !HasGhosts(s) {
		t.Fatal("ghosts not injected")
	}
	for i := 0; i < 40 && HasGhosts(s); i++ {
		s.StepRound()
	}
	if HasGhosts(s) {
		t.Fatal("ghosts survived (Prop. 2 violated)")
	}
}

func TestCorruptOversizedShrinks(t *testing.T) {
	s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 2}, Seed: 1}, graph.Line(5))
	Corrupt(s, CorruptOversized, 1.0, rand.New(rand.NewSource(3)))
	if MaxListLen(s) <= 3 {
		t.Fatal("oversized lists not injected")
	}
	s.StepRound()
	if MaxListLen(s) > 3 {
		t.Fatalf("lists still oversized after one compute: %d (Prop. 1 violated)", MaxListLen(s))
	}
}

func TestCorruptViewsAndPrioritiesRecover(t *testing.T) {
	for _, kind := range []CorruptionKind{CorruptViews, CorruptPriorities} {
		s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: 1}, graph.Line(5))
		Corrupt(s, kind, 0.6, rand.New(rand.NewSource(4)))
		if _, ok := metrics.RunUntilConverged(s, 4, 200, 3); !ok {
			t.Fatalf("kind %d: no reconvergence: %v", kind, metrics.SnapshotOf(s).Groups())
		}
	}
}

func TestCorruptFractionZero(t *testing.T) {
	s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 2}, Seed: 1}, graph.Line(4))
	if n := Corrupt(s, CorruptGhosts, 0, rand.New(rand.NewSource(1))); n != 0 {
		t.Fatalf("corrupted %d nodes at fraction 0", n)
	}
}

func TestGentleDrift(t *testing.T) {
	d := &GentleDrift{N: 5, PreserveRounds: 10}
	g := d.Graph()
	if g.NumNodes() != 5 {
		t.Fatal("graph wrong")
	}
	topo := &engine.StaticTopology{G: g}
	for r := 0; r < 10; r++ {
		if d.Apply(topo, r) || topo.G != g {
			t.Fatalf("change before PreserveRounds at %d", r)
		}
	}
	if !d.Apply(topo, 10) {
		t.Fatal("no change at PreserveRounds")
	}
	if topo.G.HasEdge(4, 5) || !topo.G.HasEdge(3, 4) || !g.HasEdge(4, 5) {
		t.Fatal("tail edge not cut, or cut in place")
	}
	cut := topo.G
	if d.Apply(topo, 11) || topo.G != cut {
		t.Fatal("change applied twice")
	}
}

func TestMergeGadgets(t *testing.T) {
	if g := MergeChain(3, 3); !g.Connected() || g.NumNodes() != 9 {
		t.Fatalf("merge chain wrong: %v", g)
	}
	ring := MergeRing(3, 3)
	chain := MergeChain(3, 3)
	if ring.NumEdges() != chain.NumEdges()+1 {
		t.Fatal("merge ring must close the loop")
	}
}

func TestDoubleJoin(t *testing.T) {
	g, l, r := DoubleJoin(4, 4)
	if !g.HasEdge(l, 1) || !g.HasEdge(4, r) {
		t.Fatal("joiners not attached")
	}
	if d := graph.RefOf(g).BFSFrom(l, nil)[r]; d != 5 {
		t.Fatalf("joiner distance = %d, want 5 (> Dmax=4)", d)
	}
}

func TestDoubleJoinQuarantineProtectsAgreement(t *testing.T) {
	// With quarantine the core group admits at most one joiner and views
	// stay consistent; the run must reconverge to a legal partition.
	g, _, _ := DoubleJoin(4, 4)
	s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: 7}, g)
	if _, ok := metrics.RunUntilConverged(s, 4, 300, 3); !ok {
		t.Fatalf("double join did not converge: %v", metrics.SnapshotOf(s).Groups())
	}
	snap := metrics.SnapshotOf(s)
	if !snap.Safety(4) {
		t.Fatalf("safety violated: %v", snap.Groups())
	}
}
