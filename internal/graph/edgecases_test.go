package graph

import (
	"slices"
	"testing"

	"repro/internal/ident"
)

// Edge-case coverage for the CSR representation: empty graph, single
// node, self-loop rejection, unknown-node queries, and the generation
// bump semantics caches key on.

func TestEmptyGraphQueries(t *testing.T) {
	g := New()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph not empty: %s", g)
	}
	if got := g.Nodes(); len(got) != 0 {
		t.Fatalf("Nodes() = %v", got)
	}
	if !g.Connected() {
		t.Fatal("empty graph must count as connected")
	}
	if d := diameter(g); d != 0 {
		t.Fatalf("empty diameter = %d", d)
	}
	if g.HasNode(1) || g.HasEdge(1, 2) || len(g.NeighborsView(1)) != 0 {
		t.Fatal("phantom content in empty graph")
	}
	if d := RefOf(g).BFSFrom(1, nil); len(d) != 0 {
		t.Fatalf("BFS from absent node reached %v", d)
	}
	if !g.Equal(New()) {
		t.Fatal("two empty graphs must be equal")
	}
	if r := g.Restrict(func(ident.NodeID) bool { return true }); r.NumNodes() != 0 {
		t.Fatal("restricting empty graph grew it")
	}
}

// TestZeroValueGraph pins "the zero value is an empty graph" through
// every reader — with a real and a fabricated ID, since the node index of
// a zero G is a nil ident.Table — and then through the mutators that
// build on it, directly and on a clone and an identity restriction.
func TestZeroValueGraph(t *testing.T) {
	var g, o G
	all := func(ident.NodeID) bool { return true }
	for _, v := range []ident.NodeID{1, 1 << 30} {
		if g.HasNode(v) || g.HasEdge(v, 2) || g.IndexOf(v) != -1 ||
			g.Neighbors(v) != nil || g.NeighborsView(v) != nil || len(RefOf(&g).BFSFrom(v, nil)) != 0 {
			t.Fatalf("zero graph answers for %v as if it held it", v)
		}
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 || len(g.Nodes()) != 0 || len(g.AppendNodes(nil)) != 0 ||
		RefOf(&g).NumNodes() != 0 || !g.All(all) || g.Generation() != 0 || g.String() != "graph(n=0, m=0)" {
		t.Fatalf("zero graph not empty: %s", &g)
	}
	if !g.Connected() || diameter(&g) != 0 {
		t.Fatal("zero graph must be connected with diameter 0")
	}
	if !g.Equal(&o) || !g.Equal(New()) || !New().Equal(&g) {
		t.Fatal("zero graphs must equal each other and New()")
	}
	clone, sib, none := g.Clone(), g.Restrict(all), g.Restrict(func(ident.NodeID) bool { return false })
	for _, h := range []*G{clone, sib, none} {
		if h.NumNodes() != 0 || !h.Equal(New()) {
			t.Fatalf("derived from a zero graph: %s", h)
		}
	}
	g.RemoveNode(1)
	g.RemoveEdge(1, 2)
	for _, h := range []*G{&g, clone, sib, &o} {
		h.AddEdge(1, 2)
		h.AddNode(1 << 30)
		if h.NumNodes() != 3 || h.NumEdges() != 1 || !h.HasEdge(2, 1) || len(h.NeighborsView(1<<30)) != 0 ||
			!slices.Equal(h.Nodes(), []ident.NodeID{1, 2, 1 << 30}) {
			t.Fatalf("built on a zero graph: %s, nodes %v", h, h.Nodes())
		}
	}
	if none.NumNodes() != 0 {
		t.Fatal("a sibling's writes reached an independent restriction")
	}
}

func TestSingleNode(t *testing.T) {
	g := New()
	g.AddNode(7)
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatalf("single node graph: %s", g)
	}
	if !g.Connected() || diameter(g) != 0 {
		t.Fatal("singleton must be connected with diameter 0")
	}
	if got := g.Neighbors(7); len(got) != 0 {
		t.Fatalf("singleton neighbors = %v", got)
	}
	if d := RefOf(g).BFSFrom(7, nil); len(d) != 1 || d[7] != 0 {
		t.Fatalf("BFS from singleton = %v", d)
	}
	g.RemoveNode(7)
	if g.HasNode(7) || g.NumNodes() != 0 {
		t.Fatal("remove of last node failed")
	}
}

func TestSelfLoopRejectedEverywhere(t *testing.T) {
	g := New()
	gen := g.Generation()
	g.AddEdge(3, 3)
	if g.Generation() != gen {
		t.Fatal("ignored self-loop must not bump the generation")
	}
	if g.HasNode(3) || g.NumEdges() != 0 {
		t.Fatalf("self-loop created state: %s", g)
	}
	// Bulk construction refuses one outright (TestFromRowsPanicsOnViolations).
}

func TestQueriesOnUnknownNode(t *testing.T) {
	g := Line(3)
	if got := g.NeighborsView(99); got != nil {
		t.Fatalf("NeighborsView(unknown) = %v", got)
	}
	if got := g.Neighbors(99); got != nil {
		t.Fatalf("Neighbors(unknown) = %v", got)
	}
	if g.IndexOf(99) != -1 || g.HasEdge(99, 1) || g.HasEdge(1, 99) {
		t.Fatal("an unknown node answers as if present")
	}
	// Mutations on unknown nodes are no-ops (beyond the generation bump).
	g.RemoveNode(99)
	g.RemoveEdge(99, 1)
	g.RemoveEdge(1, 99)
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("unknown-node mutation changed the graph: %s", g)
	}
}

// TestGenerationBumpSemantics pins the contract cache keys rely on:
// every mutating call moves the generation (even a no-op one — callers
// must be able to invalidate conservatively), read-only calls never do.
func TestGenerationBumpSemantics(t *testing.T) {
	g := New()
	last := g.Generation()
	step := func(name string, fn func()) {
		t.Helper()
		fn()
		if g.Generation() <= last {
			t.Fatalf("%s did not bump the generation", name)
		}
		last = g.Generation()
	}
	step("AddNode", func() { g.AddNode(1) })
	step("AddNode (existing)", func() { g.AddNode(1) })
	step("AddEdge", func() { g.AddEdge(1, 2) })
	step("AddEdge (duplicate)", func() { g.AddEdge(2, 1) })
	step("RemoveEdge", func() { g.RemoveEdge(1, 2) })
	step("RemoveEdge (absent)", func() { g.RemoveEdge(1, 2) })
	step("RemoveNode", func() { g.RemoveNode(2) })
	step("RemoveNode (absent)", func() { g.RemoveNode(2) })

	// Read-only calls leave it alone.
	g.AddEdge(1, 3)
	last = g.Generation()
	g.Nodes()
	g.Neighbors(1)
	g.NeighborsView(1)
	g.AppendNodes(nil)
	RefOf(g)
	g.Connected()
	_ = g.Clone()
	_ = g.Restrict(func(ident.NodeID) bool { return true })
	if g.Generation() != last {
		t.Fatal("read-only call bumped the generation")
	}
}

// TestRemoveNodeRelabelsSlots exercises the swap-delete slot compaction:
// removing an interior node must leave every other adjacency intact.
func TestRemoveNodeRelabelsSlots(t *testing.T) {
	g := Complete(6)
	g.RemoveNode(3)
	if g.NumNodes() != 5 || g.NumEdges() != 10 {
		t.Fatalf("after removal: %s", g)
	}
	for _, v := range g.Nodes() {
		nb := g.Neighbors(v)
		if len(nb) != 4 || slices.Contains(nb, 3) {
			t.Fatalf("neighbors of %v after removal: %v", v, nb)
		}
		if !slices.IsSorted(nb) {
			t.Fatalf("neighbors of %v not ascending: %v", v, nb)
		}
	}
}

// TestFromRowsArenaGrowth pins the arena-aliasing contract: growing an
// adjacency of a bulk-built graph via AddEdge must not clobber the next
// node's segment.
func TestFromRowsArenaGrowth(t *testing.T) {
	w := newDeltaWorld(4)
	w.set(1, 2, true)
	w.set(3, 4, true)
	g := w.build()
	g.AddEdge(1, 3) // grows node 1's and node 3's segments
	g.AddEdge(1, 4)
	want := map[ident.NodeID][]ident.NodeID{
		1: {2, 3, 4}, 2: {1}, 3: {1, 4}, 4: {1, 3},
	}
	for v, nb := range want {
		if got := g.Neighbors(v); !slices.Equal(got, nb) {
			t.Fatalf("neighbors of %v = %v, want %v", v, got, nb)
		}
	}
}
