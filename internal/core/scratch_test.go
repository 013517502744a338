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
// once per worker.
func TestNodeFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 360 {
		t.Errorf("sizeof(Node) = %d, want 360", got)
	}
}

// TestSharedScratchServesSettledComputeWithoutAllocating settles a pair and
// a six-clique that all work in one Scratch, then requires that a pair
// member's compute allocates nothing although a member of the larger group
// used the scratch in between: the capacity belongs to the scratch, and a
// compute leaves nothing in it that the next one needs.
func TestSharedScratchServesSettledComputeWithoutAllocating(t *testing.T) {
	g := graph.Complete(6)
	g.AddEdge(7, 8)
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
