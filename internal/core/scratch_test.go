package core

import (
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/ident"
)

// TestNodeFootprint pins the size of the per-node state. A Node is paid
// once per network node for the whole run: a field added here must be
// protocol state that survives from one compute to the next. Anything a
// compute needs only while it runs belongs in Scratch, which a driver pays
// once per worker — and so does the switch that runs it under the oracle:
// the Tracer hook and the SelfCheck flag left the node (360 → 344 B).
func TestNodeFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 344 {
		t.Errorf("sizeof(Node) = %d, want 344", got)
	}
}

// TestSharedScratchServesSettledComputeWithoutAllocating settles a pair and
// a six-clique that all work in one Scratch, then requires that a pair
// member's compute allocates nothing although a member of the larger group
// used the scratch in between: the capacity belongs to the scratch, and a
// compute leaves nothing in it that the next one needs.
func TestSharedScratchServesSettledComputeWithoutAllocating(t *testing.T) {
	r := graph.RefOf(graph.Complete(6))
	r.AddEdge(7, 8)
	g := graph.FromRef(r)
	ids := g.Nodes()
	var shared Scratch
	nodes := make(map[ident.NodeID]*Node, len(ids))
	for _, v := range ids {
		nodes[v] = NewNode(v, Config{Dmax: 3})
		nodes[v].SetScratch(&shared)
	}
	msgs := make(map[ident.NodeID]*Message, len(ids))
	deliver := func(to ident.NodeID) {
		for _, u := range g.NeighborsView(to) {
			nodes[to].ReceiveRef(msgs[u])
		}
	}
	for r := 0; r < 30; r++ {
		for _, v := range ids {
			m := nodes[v].BuildMessage()
			msgs[v] = &m
		}
		for _, v := range ids {
			deliver(v)
		}
		for _, v := range ids {
			nodes[v].Compute()
		}
	}
	small, large := nodes[7], nodes[1]
	if len(small.View()) != 2 || len(large.View()) != 6 {
		t.Fatalf("not settled: views %v and %v", small.View(), large.View())
	}
	ver := small.Version()
	if allocs := testing.AllocsPerRun(50, func() {
		deliver(1)
		large.Compute()
		deliver(7)
		small.Compute()
	}); allocs != 0 {
		t.Errorf("settled computes on a shared scratch allocate %v times per run, want 0", allocs)
	}
	if small.Version() != ver || small.RoundQuietness() != QuietFixpoint {
		t.Errorf("the settled pair moved: version %d → %d, quietness %d", ver, small.Version(), small.RoundQuietness())
	}
}

// TestNewNodesCarvesAreClamped: a node booted on NewNodes' slabs equals one
// booted alone, and its one-entry cuts — and an inbox cut from a driver's
// arena — stop at their own entry. The middle node of a path first grows
// its inbox, list and both priority tables past their cuts while its slab
// neighbours still read their own boot state; then the whole path runs on
// (views and quarantines grow with the group), equal round by round to
// three nodes booted alone.
func TestNewNodesCarvesAreClamped(t *testing.T) {
	ids := []ident.NodeID{1, 2, 3}
	cfg := Config{Dmax: 3}
	slab, alone := NewNodes(ids, cfg), make([]*Node, len(ids))
	inboxes := make([]*Message, len(ids))
	for i, id := range ids {
		alone[i] = NewNode(id, cfg)
		slab[i].SetInbox(inboxes[i : i+1 : i+1])
		if got, want := slab[i].StateDigest(), alone[i].StateDigest(); got != want {
			t.Fatalf("NewNodes(ids)[%d] boots as %s, NewNode(%d) as %s", i, &slab[i], id, alone[i])
		}
		n := &slab[i]
		for name, c := range map[string]int{"list": cap(n.list.Entries()), "view": cap(n.view),
			"quar": cap(n.quar), "prios": cap(n.prios), "gprs": cap(n.gprs), "inbox": cap(n.msgSet)} {
			if c != 1 {
				t.Errorf("node %d: cap(%s) = %d, want its own entry only", id, name, c)
			}
		}
	}
	boot := [2]uint64{slab[0].StateDigest(), slab[2].StateDigest()}
	for r := 0; r < 6; r++ {
		for _, nodes := range [][]*Node{{&slab[0], &slab[1], &slab[2]}, alone} {
			m0, m1, m2 := nodes[0].BuildMessage(), nodes[1].BuildMessage(), nodes[2].BuildMessage()
			nodes[1].Receive(m0)
			nodes[1].Receive(m2)
			if r > 0 { // round 0 grows the middle node only
				nodes[0].Receive(m1)
				nodes[2].Receive(m1)
				nodes[0].Compute()
				nodes[2].Compute()
			}
			nodes[1].Compute()
		}
		if r == 0 {
			if got := [2]uint64{slab[0].StateDigest(), slab[2].StateDigest()}; got != boot {
				t.Fatalf("node 2 outgrew its cuts over its neighbours': %s, %s", &slab[0], &slab[2])
			}
			if n := &slab[1]; len(n.list.Entries()) < 2 || len(n.prios) < 2 || len(n.gprs) < 2 {
				t.Fatalf("node 2 grew nothing in round 0 (%s) — the check is vacuous", n)
			}
		}
		for i := range ids {
			if got, want := slab[i].StateDigest(), alone[i].StateDigest(); got != want {
				t.Fatalf("round %d: slab node %s, lone node %s", r, &slab[i], alone[i])
			}
		}
	}
	if n := &slab[1]; len(n.view) < 2 || len(n.quar) < 2 {
		t.Fatalf("the path never formed a group (%s) — the view and quarantine cuts were never outgrown", n)
	}
}
