package graph

import (
	"slices"
	"testing"

	"repro/internal/ident"
)

// Edge-case coverage for the CSR representation: empty graph, single
// node, self-loop rejection, unknown-node queries, slot numbering and row
// bounds.

func TestEmptyGraphQueries(t *testing.T) {
	g := FromRef(NewRef())
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
	if !g.Equal(&G{}) {
		t.Fatal("two empty graphs must be equal")
	}
	if r := g.Restrict(func(ident.NodeID) bool { return true }); r.NumNodes() != 0 {
		t.Fatal("restricting empty graph grew it")
	}
}

// TestZeroValueGraph pins "the zero value is an empty graph" through
// every reader — with a real and a fabricated ID, since the node index of
// a zero G is a nil ident.Table — and through the graphs derived from it.
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
		RefOf(&g).NumNodes() != 0 || !g.All(all) || g.String() != "graph(n=0, m=0)" {
		t.Fatalf("zero graph not empty: %s", &g)
	}
	if !g.Connected() || diameter(&g) != 0 {
		t.Fatal("zero graph must be connected with diameter 0")
	}
	empty := FromRef(NewRef())
	if !g.Equal(&o) || !g.Equal(empty) || !empty.Equal(&g) {
		t.Fatal("zero graphs must equal each other and a packed empty graph")
	}
	sib, none := g.Restrict(all), g.Restrict(func(ident.NodeID) bool { return false })
	for _, h := range []*G{sib, none, ApplyDelta(&g, nil, nil)} {
		if h.NumNodes() != 0 || !h.Equal(empty) {
			t.Fatalf("derived from a zero graph: %s", h)
		}
	}
}

func TestSingleNode(t *testing.T) {
	r := NewRef()
	r.AddNode(7)
	g := FromRef(r)
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
	r.RemoveNode(7)
	if h := FromRef(r); h.HasNode(7) || h.NumNodes() != 0 || !g.HasNode(7) {
		t.Fatal("remove of last node failed, or reached the graph packed before")
	}
}

func TestSelfLoopRejectedEverywhere(t *testing.T) {
	r := RefOf(Line(2))
	r.AddEdge(3, 3)
	r.AddEdge(2, 2)
	if g := FromRef(r); g.HasNode(3) || g.NumEdges() != 1 || g.HasEdge(2, 2) {
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
	// Edits naming unknown nodes are no-ops.
	r := RefOf(g)
	r.RemoveNode(99)
	r.RemoveEdge(99, 1)
	r.RemoveEdge(1, 99)
	if h := FromRef(r); !h.Equal(g) {
		t.Fatalf("unknown-node edit changed the graph: %s", h)
	}
}

// TestRemoveNodeRelabelsSlots: a graph packed after an interior node's
// removal numbers its slots densely in ascending node order, and every
// other adjacency is intact.
func TestRemoveNodeRelabelsSlots(t *testing.T) {
	r := RefOf(Complete(6))
	r.RemoveNode(3)
	g := FromRef(r)
	if g.NumNodes() != 5 || g.NumEdges() != 10 {
		t.Fatalf("after removal: %s", g)
	}
	for i, v := range g.Nodes() {
		if g.IndexOf(v) != int32(i) {
			t.Fatalf("slot of %v is %d, want %d", v, g.IndexOf(v), i)
		}
		nb := g.Neighbors(v)
		if len(nb) != 4 || slices.Contains(nb, 3) {
			t.Fatalf("neighbors of %v after removal: %v", v, nb)
		}
		if !slices.IsSorted(nb) {
			t.Fatalf("neighbors of %v not ascending: %v", v, nb)
		}
	}
}

// TestFromRowsArenaGrowth pins the arena-aliasing contract: appending to a
// row read from a packed graph must not clobber the next node's segment.
func TestFromRowsArenaGrowth(t *testing.T) {
	w := newDeltaWorld(4)
	w.set(1, 2, true)
	w.set(3, 4, true)
	g := w.build()
	_ = append(g.NeighborsView(1), 3, 4)
	_ = append(g.NeighborsAt(g.IndexOf(3)), 1)
	want := map[ident.NodeID][]ident.NodeID{
		1: {2}, 2: {1}, 3: {4}, 4: {3},
	}
	for v, nb := range want {
		if got := g.Neighbors(v); !slices.Equal(got, nb) {
			t.Fatalf("neighbors of %v = %v, want %v", v, got, nb)
		}
	}
}
