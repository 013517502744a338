package grp

import "testing"

// TestFacadeSimQuickstart exercises the documented public path: build a
// simulation over a line, run to convergence, inspect groups.
func TestFacadeSimQuickstart(t *testing.T) {
	s := NewStaticSim(SimParams{Cfg: Config{Dmax: 3}, Seed: 1}, Line(4))
	if _, ok := RunUntilConverged(s, 3, 100, 3); !ok {
		t.Fatalf("no convergence: %v", SnapshotOf(s).Groups())
	}
	snap := SnapshotOf(s)
	if snap.GroupCount() != 1 || !snap.Converged(3) {
		t.Fatalf("groups = %v", snap.Groups())
	}
}

// TestFacadeProtocolDirect drives two nodes by hand through the raw
// protocol API, the path a custom transport would use.
func TestFacadeProtocolDirect(t *testing.T) {
	a := NewNode(1, Config{Dmax: 2})
	b := NewNode(2, Config{Dmax: 2})
	for i := 0; i < 8; i++ {
		ma, mb := a.BuildMessage(), b.BuildMessage()
		a.Receive(mb)
		b.Receive(ma)
		a.Compute()
		b.Compute()
	}
	if len(a.View()) != 2 || len(b.View()) != 2 {
		t.Fatalf("views: %v %v", a.View(), b.View())
	}
}

// TestFacadeSpatial runs a convoy scenario through the spatial topology.
func TestFacadeSpatial(t *testing.T) {
	w := NewWorld(4)
	nodes := []NodeID{1, 2, 3}
	topo := NewSpatialTopology(w, &Convoy{Spacing: 3, Speed: 2}, 0.1, nodes, nil)
	s := NewSim(SimParams{Cfg: Config{Dmax: 2}, Seed: 5}, topo)
	if _, ok := RunUntilConverged(s, 2, 100, 3); !ok {
		t.Fatalf("convoy did not converge: %v", SnapshotOf(s).Groups())
	}
}

// TestFacadeTracker exercises the churn tracker on a link cut.
func TestFacadeTracker(t *testing.T) {
	topo := &StaticTopology{G: Line(4)}
	s := NewSim(SimParams{Cfg: Config{Dmax: 3}, Seed: 2}, topo)
	tr := NewTracker()
	RunUntilConverged(s, 3, 100, 3)
	tr.Observe(SnapshotOf(s), 3)
	topo.Edit(func(g *GraphEdit) { g.RemoveEdge(2, 3) })
	for i := 0; i < 20; i++ {
		s.StepRound()
		tr.Observe(SnapshotOf(s), 3)
	}
	if tr.ContinuityViolations == 0 {
		t.Fatal("cut must violate raw continuity")
	}
	if tr.UnexcusedViolations != 0 {
		t.Fatalf("violations must be excused by ΠT: %+v", tr)
	}
}
