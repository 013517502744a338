package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/antlist"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/priority"
)

// checkInvariants asserts the structural invariants every node must keep
// at every reachable state, whatever the message schedule:
//
//	I1: the list's position 0 is exactly the plain self entry;
//	I2: the list never exceeds Dmax+1 positions;
//	I3: no node appears twice in the list;
//	I4: the view contains the node itself;
//	I5: every view member is a plain entry of the list with quarantine 0;
//	I6: the group priority never beats the best member priority.
func checkInvariants(t *testing.T, n *Node) {
	t.Helper()
	l := n.List()
	if l.Owner() != n.ID() {
		t.Fatalf("I1: owner %v on node %v (list %v)", l.Owner(), n.ID(), l)
	}
	if e, ok := l.At(0).Get(n.ID()); !ok || e.Mark.Marked() || len(l.At(0)) != 1 {
		t.Fatalf("I1: position 0 wrong on %v: %v", n.ID(), l)
	}
	if l.Len() > n.Config().Dmax+1 {
		t.Fatalf("I2: list too long on %v: %v", n.ID(), l)
	}
	seen := map[ident.NodeID]bool{}
	for _, u := range l.IDs() {
		if seen[u] {
			t.Fatalf("I3: duplicate %v in %v", u, l)
		}
		seen[u] = true
	}
	if !n.InView(n.ID()) {
		t.Fatalf("I4: self missing from view on %v", n.ID())
	}
	best := priority.Infinite
	for u := range n.ViewSet() {
		pos, e := l.Position(u)
		if u != n.ID() && (pos < 0 || e.Mark.Marked()) {
			t.Fatalf("I5: view member %v not plain in list on %v: %v", u, n.ID(), l)
		}
		if q := n.QuarantineOf(u); q != 0 {
			t.Fatalf("I5: view member %v has quarantine %d on %v", u, q, n.ID())
		}
		_ = best
	}
	if n.GroupPriority().IsInfinite() {
		t.Fatalf("I6: infinite group priority on %v", n.ID())
	}
	if n.Priority().Less(n.GroupPriority()) {
		t.Fatalf("I6: group priority %v worse than own %v on %v",
			n.GroupPriority(), n.Priority(), n.ID())
	}
}

// TestQuickInvariantsUnderRandomSchedules runs random topologies under
// random lossy asynchronous schedules and checks the invariants at every
// compute of every node.
func TestQuickInvariantsUnderRandomSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random small topology.
		var g *graph.G
		switch rng.Intn(4) {
		case 0:
			g = graph.Line(3 + rng.Intn(6))
		case 1:
			g = graph.Ring(4 + rng.Intn(6))
		case 2:
			g = graph.Clusters(2, 3, rng.Intn(2), false)
		default:
			g = graph.RandomGeometric(8, 10, 4, rng)
		}
		cfg := Config{Dmax: 1 + rng.Intn(4)}
		nodes := map[ident.NodeID]*Node{}
		for _, v := range g.Nodes() {
			nodes[v] = NewNode(v, cfg)
		}
		// Random asynchronous schedule with loss: at every step each node
		// broadcasts with probability 0.7 (each delivery dropped with
		// probability 0.2) and computes with probability 0.5.
		for step := 0; step < 60; step++ {
			msgs := map[ident.NodeID]Message{}
			for v, n := range nodes {
				if rng.Float64() < 0.7 {
					msgs[v] = n.BuildMessage()
				}
			}
			for v, m := range msgs {
				for _, u := range g.Neighbors(v) {
					if rng.Float64() < 0.2 {
						continue
					}
					nodes[u].Receive(m)
				}
			}
			for _, v := range g.Nodes() {
				if rng.Float64() < 0.5 {
					nodes[v].Compute()
					checkInvariants(t, nodes[v])
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInvariantsFromCorruptedStates starts nodes in adversarial
// states and checks the first computes repair all invariants.
func TestQuickInvariantsFromCorruptedStates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Dmax: 2 + rng.Intn(3)}
		g := graph.Line(4)
		nodes := map[ident.NodeID]*Node{}
		for _, v := range g.Nodes() {
			n := NewNode(v, cfg)
			// Random garbage list (may violate every invariant).
			depth := 1 + rng.Intn(cfg.Dmax+4)
			sets := make([]antlist.Set, depth)
			sets[0] = antlist.NewSet(ident.Plain(v))
			for i := 1; i < depth; i++ {
				s := antlist.Set{}
				for j := 0; j <= rng.Intn(3); j++ {
					s = s.Add(ident.Entry{
						ID:   ident.NodeID(1 + rng.Uint32()%300),
						Mark: ident.Mark(rng.Intn(3)),
					})
				}
				sets[i] = s
			}
			n.LoadState(antlist.FromSets(sets...), nil, nil, priority.Of(rng.Uint64()%1000, v))
			nodes[v] = n
		}
		for step := 0; step < 12; step++ {
			msgs := map[ident.NodeID]Message{}
			for v, n := range nodes {
				msgs[v] = n.BuildMessage()
			}
			for v := range nodes {
				for _, u := range g.Neighbors(v) {
					nodes[v].Receive(msgs[u])
				}
			}
			for _, n := range nodes {
				n.Compute()
				checkInvariants(t, n)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestComputeNeverPanicsOnHostileMessages feeds adversarial message
// contents (malformed lists, alien marks, absurd priorities) directly.
func TestComputeNeverPanicsOnHostileMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := NewNode(1, Config{Dmax: 3})
	for i := 0; i < 3000; i++ {
		depth := rng.Intn(8)
		sets := make([]antlist.Set, depth)
		for p := 0; p < depth; p++ {
			s := antlist.Set{}
			for j := 0; j < rng.Intn(4); j++ {
				s = s.Add(ident.Entry{
					ID:   ident.NodeID(rng.Uint32() % 16),
					Mark: ident.Mark(rng.Intn(3)),
				})
			}
			sets[p] = s
		}
		l := antlist.FromSets(sets...)
		m := Message{
			From: ident.NodeID(2 + rng.Uint32()%4),
			List: l,
			Recs: RecsFromMaps(l,
				map[ident.NodeID]priority.P{ident.NodeID(rng.Uint32() % 8): priority.Of(rng.Uint64(), 0)},
				nil,
				map[ident.NodeID]int{ident.NodeID(rng.Uint32() % 8): rng.Intn(10) - 3}),
			GroupPrio: priority.Of(rng.Uint64(), ident.NodeID(rng.Uint32())),
		}
		n.Receive(m)
		if i%3 == 0 {
			n.Compute()
			checkInvariants(t, n)
		}
	}
}
