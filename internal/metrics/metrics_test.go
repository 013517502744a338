package metrics

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
)

func views(parts ...[]uint32) map[ident.NodeID]map[ident.NodeID]bool {
	out := make(map[ident.NodeID]map[ident.NodeID]bool)
	for _, part := range parts {
		set := make(map[ident.NodeID]bool, len(part))
		for _, v := range part {
			set[ident.NodeID(v)] = true
		}
		for _, v := range part {
			out[ident.NodeID(v)] = set
		}
	}
	return out
}

func snapLine(n int, parts ...[]uint32) Snapshot {
	return Snapshot{G: graph.Line(n), Views: views(parts...)}
}

// edit replaces s's graph by f's edit of a copy of it.
func edit(s *Snapshot, f func(*graph.Ref)) {
	r := graph.RefOf(s.G)
	f(r)
	s.G = graph.FromRef(r)
}

func TestOmegaAgreedGroup(t *testing.T) {
	s := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	om := s.Omega(1)
	if len(om) != 2 || !om[1] || !om[2] {
		t.Fatalf("Omega(1) = %v", om)
	}
}

func TestOmegaDisagreementIsSingleton(t *testing.T) {
	s := snapLine(3)
	s.Views = map[ident.NodeID]map[ident.NodeID]bool{
		1: {1: true, 2: true},
		2: {2: true}, // 2 does not agree
		3: {3: true},
	}
	om := s.Omega(1)
	if len(om) != 1 || !om[1] {
		t.Fatalf("Omega(1) = %v, want singleton", om)
	}
}

func TestOmegaSelfMissingIsSingleton(t *testing.T) {
	s := snapLine(2)
	s.Views = map[ident.NodeID]map[ident.NodeID]bool{
		1: {2: true}, // v ∉ view_v
		2: {2: true},
	}
	if om := s.Omega(1); len(om) != 1 || !om[1] {
		t.Fatalf("Omega(1) = %v", om)
	}
}

func TestAgreementHoldsAndFails(t *testing.T) {
	good := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	if !good.Agreement() {
		t.Fatal("agreement should hold")
	}
	bad := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	bad.Views[2] = map[ident.NodeID]bool{2: true}
	if bad.Agreement() {
		t.Fatal("agreement should fail on divergent views")
	}
	overlap := snapLine(3)
	overlap.Views = map[ident.NodeID]map[ident.NodeID]bool{
		1: {1: true, 2: true},
		2: {1: true, 2: true},
		3: {2: true, 3: true}, // 2 claimed by two parts
	}
	if overlap.Agreement() {
		t.Fatal("agreement should fail on overlapping views")
	}
}

func TestSafety(t *testing.T) {
	s := snapLine(4, []uint32{1, 2, 3, 4})
	if !s.Safety(3) || s.Safety(2) {
		t.Fatal("safety thresholds wrong")
	}
	// Disconnected group: {1,3} in a line has no internal path.
	d := snapLine(3, []uint32{1, 3}, []uint32{2})
	if d.Safety(5) {
		t.Fatal("disconnected group must violate safety")
	}
}

func TestSafetyRate(t *testing.T) {
	// Line of 6: {1,2,3,4} has induced diameter 3, {5,6} diameter 1.
	s := snapLine(6, []uint32{1, 2, 3, 4}, []uint32{5, 6})
	if got := s.SafetyRate(3); got != 1 {
		t.Fatalf("rate = %v, want 1", got)
	}
	if got := s.SafetyRate(2); got != 0.5 {
		t.Fatalf("rate = %v, want 0.5 (only the pair fits Dmax=2)", got)
	}
	if (Snapshot{G: &graph.G{}}).SafetyRate(2) != 1 {
		t.Fatal("empty snapshot must have rate 1")
	}
	// The boolean conjunction and the rate must agree at the extremes.
	if s.Safety(2) || !s.Safety(3) {
		t.Fatal("Safety inconsistent with SafetyRate")
	}
}

func TestMaximality(t *testing.T) {
	// Line of 4, Dmax=1: pairs {1,2},{3,4} are maximal.
	s := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	if !s.Maximality(1) {
		t.Fatal("pairs should be maximal at Dmax=1")
	}
	if s.Maximality(3) {
		t.Fatal("pairs are not maximal at Dmax=3 (they could merge)")
	}
	// Singletons next to each other are not maximal.
	u := snapLine(2, []uint32{1}, []uint32{2})
	if u.Maximality(1) {
		t.Fatal("adjacent singletons are not maximal")
	}
}

func TestConverged(t *testing.T) {
	s := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	if !s.Converged(1) {
		t.Fatal("should be converged at Dmax=1")
	}
	if s.Converged(3) {
		t.Fatal("not maximal at Dmax=3")
	}
}

func TestTopological(t *testing.T) {
	prev := snapLine(3, []uint32{1, 2, 3})
	// Same topology: ΠT holds for Dmax=2.
	if !Topological(prev, snapLine(3, []uint32{1, 2, 3}), 2) {
		t.Fatal("static topology must satisfy ΠT")
	}
	// Cut the 2-3 edge: group {1,2,3} gets stretched to ∞.
	next := snapLine(3, []uint32{1, 2, 3})
	edit(&next, func(r *graph.Ref) { r.RemoveEdge(2, 3) })
	if Topological(prev, next, 2) {
		t.Fatal("cut edge must falsify ΠT")
	}
	// A node leaving falsifies ΠT too.
	gone := snapLine(3, []uint32{1, 2, 3})
	edit(&gone, func(r *graph.Ref) { r.RemoveNode(3) })
	if Topological(prev, gone, 2) {
		t.Fatal("departed member must falsify ΠT")
	}
	// Singletons are never stretched.
	sing := snapLine(3, []uint32{1}, []uint32{2}, []uint32{3})
	cut := snapLine(3, []uint32{1}, []uint32{2}, []uint32{3})
	edit(&cut, func(r *graph.Ref) { r.RemoveEdge(1, 2) })
	if !Topological(sing, cut, 2) {
		t.Fatal("singleton groups cannot violate ΠT")
	}
}

func TestContinuity(t *testing.T) {
	prev := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	// Growing is fine.
	grown := snapLine(4, []uint32{1, 2, 3, 4})
	if !Continuity(prev, grown) {
		t.Fatal("growth must not violate ΠC")
	}
	// Losing a member is a violation for the members that kept agreeing.
	shrunk := snapLine(4, []uint32{1}, []uint32{2}, []uint32{3, 4})
	viol := ContinuityViolations(prev, shrunk)
	if len(viol) == 0 {
		t.Fatal("shrink must violate ΠC")
	}
	// A departed node: its view entry disappears with it, so a survivor
	// still claiming it collapses to a singleton Ω — a raw ΠC violation,
	// excused because ΠT is false.
	gone := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	edit(&gone, func(r *graph.Ref) { r.RemoveNode(4) })
	delete(gone.Views, 4)
	if Continuity(prev, gone) {
		t.Fatal("losing a departed member still violates raw ΠC (excused by ΠT)")
	}
	if Topological(prev, gone, 1) {
		t.Fatal("the departure must falsify ΠT, excusing the violation")
	}
}

func TestGroupsAndStats(t *testing.T) {
	s := snapLine(5, []uint32{1, 2}, []uint32{3, 4}, []uint32{5})
	groups := s.Groups()
	if len(groups) != 3 || s.GroupCount() != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if s.SingletonCount() != 1 {
		t.Fatalf("singletons = %d", s.SingletonCount())
	}
	if m := s.MeanGroupSize(); m < 1.66 || m > 1.67 {
		t.Fatalf("mean size = %v", m)
	}
}

func TestTrackerExcusedAndUnexcused(t *testing.T) {
	tr := NewTracker()
	a := snapLine(3, []uint32{1, 2, 3})
	tr.Observe(a, 2)
	// Unexcused: views shrink with no topology change.
	b := snapLine(3, []uint32{1}, []uint32{2}, []uint32{3})
	tr.Observe(b, 2)
	if tr.ContinuityViolations != 1 || tr.UnexcusedViolations != 1 || tr.ExcusedViolations != 0 {
		t.Fatalf("tracker = %+v", tr)
	}
	// Excused: a topology cut explains the next shrink.
	tr2 := NewTracker()
	tr2.Observe(a, 2)
	c := snapLine(3, []uint32{1, 2}, []uint32{3})
	edit(&c, func(r *graph.Ref) { r.RemoveEdge(2, 3) })
	tr2.Observe(c, 2)
	if tr2.ContinuityViolations != 1 || tr2.ExcusedViolations != 1 || tr2.UnexcusedViolations != 0 {
		t.Fatalf("tracker2 = %+v", tr2)
	}
	if tr2.TopologyBreaks != 1 {
		t.Fatalf("topology breaks = %d", tr2.TopologyBreaks)
	}
}

func TestTrackerLifetimes(t *testing.T) {
	tr := NewTracker()
	a := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	for i := 0; i < 5; i++ {
		tr.Observe(a, 3)
	}
	// Dissolve {3,4}.
	b := snapLine(4, []uint32{1, 2}, []uint32{3}, []uint32{4})
	tr.Observe(b, 3)
	if len(tr.Lifetimes) == 0 {
		t.Fatal("dissolved group must record a lifetime")
	}
	if tr.Lifetimes[0] < 4 {
		t.Fatalf("lifetime = %d, want ≥ 4", tr.Lifetimes[0])
	}
	if tr.MeanLifetime() <= 0 {
		t.Fatal("mean lifetime must be positive")
	}
	if tr.MembershipChanges == 0 {
		t.Fatal("membership changes must be counted")
	}
}

func TestExternalEdges(t *testing.T) {
	s := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	if got := s.ExternalEdges(); got != 1 {
		t.Fatalf("nee = %d, want 1 (the 2-3 bridge)", got)
	}
	one := snapLine(4, []uint32{1, 2, 3, 4})
	if got := one.ExternalEdges(); got != 0 {
		t.Fatalf("nee = %d, want 0", got)
	}
	sing := snapLine(3, []uint32{1}, []uint32{2}, []uint32{3})
	if got := sing.ExternalEdges(); got != 2 {
		t.Fatalf("nee = %d, want 2", got)
	}
}

func TestTopologicalRelaysRestrictedToGroup(t *testing.T) {
	// Prev group {1,2,3} on a line 1-2-3. Next topology replaces the 2-3
	// edge with a detour through outsider 4 (2-4, 4-3): members stay
	// connected in the graph, but ΠT only allows prev-group members as
	// relays, so the group is stretched to ∞.
	prev := snapLine(3, []uint32{1, 2, 3})
	next := snapLine(3, []uint32{1, 2, 3})
	edit(&next, func(r *graph.Ref) { r.RemoveEdge(2, 3) })
	edit(&next, func(r *graph.Ref) { r.AddEdge(2, 4) })
	edit(&next, func(r *graph.Ref) { r.AddEdge(4, 3) })
	if Topological(prev, next, 3) {
		t.Fatal("detour through a non-member must not satisfy ΠT")
	}
	// With the direct edge restored the group fits again.
	edit(&next, func(r *graph.Ref) { r.AddEdge(2, 3) })
	if !Topological(prev, next, 2) {
		t.Fatal("restored edge must satisfy ΠT")
	}
}

func TestTopologicalDedupsByGroup(t *testing.T) {
	// Two groups sharing the dmax budget: only {3,4} is stretched.
	prev := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	next := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	edit(&next, func(r *graph.Ref) { r.RemoveEdge(3, 4) })
	if Topological(prev, next, 1) {
		t.Fatal("cut inside {3,4} must falsify ΠT")
	}
	next2 := snapLine(4, []uint32{1, 2}, []uint32{3, 4})
	edit(&next2, func(r *graph.Ref) { r.RemoveEdge(2, 3) }) // only the inter-group bridge moved
	if !Topological(prev, next2, 1) {
		t.Fatal("bridge cut between groups must not falsify ΠT")
	}
}

func TestContinuityViolationsIdentifiesNodes(t *testing.T) {
	// {1,2,3} splits: 3 secedes. Nodes 1 and 2 keep agreeing on {1,2} —
	// each lost member 3 — and 3's own group shrank too.
	prev := snapLine(3, []uint32{1, 2, 3})
	next := snapLine(3, []uint32{1, 2}, []uint32{3})
	viol := ContinuityViolations(prev, next)
	want := map[ident.NodeID]bool{1: true, 2: true, 3: true}
	if len(viol) != len(want) {
		t.Fatalf("violations = %v, want nodes 1,2,3", viol)
	}
	for _, v := range viol {
		if !want[v] {
			t.Fatalf("unexpected violator %v in %v", v, viol)
		}
	}
	// A departed node is not a violator itself, but survivors that lose
	// it are.
	gone := snapLine(3, []uint32{1, 2}, []uint32{3})
	edit(&gone, func(r *graph.Ref) { r.RemoveNode(3) })
	delete(gone.Views, 3)
	viol = ContinuityViolations(snapLine(3, []uint32{1, 2}, []uint32{3}), gone)
	if len(viol) != 0 {
		t.Fatalf("only node 3 left and it was a singleton: %v", viol)
	}
	// Growth is never a violation.
	if v := ContinuityViolations(next, prev); len(v) != 0 {
		t.Fatalf("merge reported violations: %v", v)
	}
}

func TestGroupsRepresentativeDedupOnDisagreement(t *testing.T) {
	// A disagreeing configuration: 2 claims {1,2}, 1 claims {1}. Ω sets
	// are {1} (for 1), {2} (for 2, disagreement singleton) — the
	// representative dedup must not conflate them with {1,2}.
	s := snapLine(2)
	s.Views = map[ident.NodeID]map[ident.NodeID]bool{
		1: {1: true},
		2: {1: true, 2: true},
	}
	groups := s.Groups()
	if len(groups) != 2 || len(groups[0]) != 1 || len(groups[1]) != 1 {
		t.Fatalf("groups = %v, want [[1] [2]]", groups)
	}
	if s.Agreement() {
		t.Fatal("agreement must fail")
	}
}
