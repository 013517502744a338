package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

func set(idsIn ...uint32) map[ident.NodeID]bool {
	out := make(map[ident.NodeID]bool, len(idsIn))
	for _, v := range idsIn {
		out[ident.NodeID(v)] = true
	}
	return out
}

// nodeSet returns g's nodes as a set, the shape Ref's induced queries take.
func nodeSet(g *G) map[ident.NodeID]bool {
	out := make(map[ident.NodeID]bool, g.NumNodes())
	for _, v := range g.Nodes() {
		out[v] = true
	}
	return out
}

// dist returns d_X(u,v) on the reference graph (X = nil: the whole
// graph), or Infinity.
func dist(r *Ref, u, v ident.NodeID, x map[ident.NodeID]bool) int {
	if d, ok := r.BFSFrom(u, x)[v]; ok {
		return d
	}
	return Infinity
}

// in is the membership test of x, the shape Restrict takes.
func in(x map[ident.NodeID]bool) func(ident.NodeID) bool {
	return func(v ident.NodeID) bool { return x[v] }
}

// diameter returns g's diameter, computed on the reference graph.
func diameter(g *G) int { return RefOf(g).InducedDiameter(nodeSet(g)) }

// TestAddRemoveEdgeNode edits a Ref and packs it after every edit: each
// packed graph shows that edit and the graphs packed before it do not.
func TestAddRemoveEdgeNode(t *testing.T) {
	r := NewRef()
	r.AddEdge(1, 2)
	r.AddEdge(2, 3)
	g := FromRef(r)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("edge must be undirected")
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	r.RemoveEdge(1, 2)
	if cut := FromRef(r); cut.HasEdge(1, 2) || !g.HasEdge(1, 2) {
		t.Fatal("edge not removed, or removed from the graph packed before")
	}
	r.RemoveNode(2)
	if h := FromRef(r); h.HasNode(2) || h.HasEdge(2, 3) || h.HasEdge(3, 2) || !g.HasEdge(2, 3) {
		t.Fatal("node removal incomplete, or reached the graph packed before")
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	r := NewRef()
	r.AddEdge(1, 1)
	if g := FromRef(r); g.NumEdges() != 0 || g.NumNodes() != 0 {
		t.Fatal("self loop should be ignored")
	}
}

func TestLineDistances(t *testing.T) {
	g := Line(5)
	r := RefOf(g)
	if d := dist(r, 1, 5, nil); d != 4 {
		t.Fatalf("Dist(1,5) = %d", d)
	}
	if d := dist(r, 2, 2, nil); d != 0 {
		t.Fatalf("Dist(2,2) = %d", d)
	}
	r.RemoveEdge(3, 4)
	if d := dist(r, 1, 5, nil); d != Infinity {
		t.Fatalf("Dist across cut = %d", d)
	}
}

func TestDistWithinRestrictsRelays(t *testing.T) {
	// 1-2-3 and 1-4-3: excluding 2 forces the longer... here same length;
	// excluding both 2 and 4 disconnects.
	r := NewRef()
	r.AddEdge(1, 2)
	r.AddEdge(2, 3)
	r.AddEdge(1, 4)
	r.AddEdge(4, 3)
	if d := dist(r, 1, 3, set(1, 2, 3)); d != 2 {
		t.Fatalf("d_{1,2,3}(1,3) = %d", d)
	}
	if d := dist(r, 1, 3, set(1, 3)); d != Infinity {
		t.Fatalf("d_{1,3}(1,3) = %d, want Infinity", d)
	}
}

func TestInducedDiameterAndConnectivity(t *testing.T) {
	g := Line(6)
	r := RefOf(g)
	if d := r.InducedDiameter(nodeSet(g)); d != 5 {
		t.Fatalf("diameter = %d", d)
	}
	if d := r.InducedDiameter(set(1, 2, 3)); d != 2 {
		t.Fatalf("induced diameter = %d", d)
	}
	if d := r.InducedDiameter(set(1, 3)); d != Infinity {
		t.Fatal("disconnected induced subgraph must be Infinity")
	}
	if d := r.InducedDiameter(set(4)); d != 0 {
		t.Fatalf("singleton diameter = %d", d)
	}
	if d := r.InducedDiameter(nil); d != 0 {
		t.Fatalf("empty diameter = %d", d)
	}
	if !g.Restrict(in(set(2, 3, 4))).Connected() || g.Restrict(in(set(1, 6))).Connected() {
		t.Fatal("Connected wrong on an induced subgraph")
	}
}

func TestGenerators(t *testing.T) {
	if g := Ring(6); g.NumEdges() != 6 || diameter(g) != 3 {
		t.Fatalf("ring: %v diam=%d", g, diameter(g))
	}
	if g := Grid(3, 4); g.NumNodes() != 12 || diameter(g) != 5 {
		t.Fatalf("grid: %v diam=%d", g, diameter(g))
	}
	if g := Star(5); diameter(g) != 2 || len(g.NeighborsView(1)) != 4 {
		t.Fatalf("star wrong")
	}
	if g := Complete(5); g.NumEdges() != 10 || diameter(g) != 1 {
		t.Fatalf("complete wrong")
	}
	if g := Line(1); !g.Connected() || diameter(g) != 0 {
		t.Fatalf("singleton line wrong")
	}
}

func TestClustersGadget(t *testing.T) {
	// 3 cliques of 3, direct bridges, chained: connected, and the cliques
	// are diameter-1 blobs.
	g := Clusters(3, 3, 0, false)
	if !g.Connected() {
		t.Fatal("chain of clusters must be connected")
	}
	if g.NumNodes() != 9 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if d := RefOf(g).InducedDiameter(set(1, 2, 3)); d != 1 {
		t.Fatalf("clique diameter = %d", d)
	}
	// Ring variant adds the closing bridge.
	gr := Clusters(3, 3, 0, true)
	if gr.NumEdges() != g.NumEdges()+1 {
		t.Fatal("ring must add exactly one bridge edge")
	}
	// Bridged variant inserts relay nodes.
	gb := Clusters(2, 2, 2, false)
	if gb.NumNodes() != 6 { // 2*2 + 2 relays
		t.Fatalf("bridged n = %d", gb.NumNodes())
	}
	if d := dist(RefOf(gb), 2, 3, nil); d != 3 {
		t.Fatalf("bridge length wrong: %d", d)
	}
}

func TestRandomGeometricDeterministic(t *testing.T) {
	a := RandomGeometric(30, 10, 3, rand.New(rand.NewSource(7)))
	b := RandomGeometric(30, 10, 3, rand.New(rand.NewSource(7)))
	if !a.Equal(b) {
		t.Fatal("same seed must give same graph")
	}
	c := RandomGeometric(30, 10, 3, rand.New(rand.NewSource(8)))
	if a.Equal(c) {
		t.Fatal("different seeds should differ (overwhelmingly)")
	}
}

func TestConnectedRandomGeometric(t *testing.T) {
	g := ConnectedRandomGeometric(25, 10, 5, rand.New(rand.NewSource(1)), 50)
	if g == nil || !g.Connected() {
		t.Fatal("should find a connected instance with generous range")
	}
	if g2 := ConnectedRandomGeometric(30, 1000, 0.1, rand.New(rand.NewSource(1)), 3); g2 != nil {
		t.Fatal("hopeless parameters should return nil")
	}
}

func TestFromRefAndEqual(t *testing.T) {
	g := Grid(3, 3)
	r := RefOf(g)
	if c := FromRef(r); !g.Equal(c) || !c.Equal(g) {
		t.Fatal("a graph packed from its own reference must equal it")
	}
	r.RemoveEdge(1, 2)
	if c := FromRef(r); g.Equal(c) || c.Equal(g) || !g.HasEdge(1, 2) {
		t.Fatal("an edited reference must pack to another graph, g unchanged")
	}
}

func TestQuickBFSTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGeometric(15, 10, 4, rng)
		r := RefOf(g)
		nodes := g.Nodes()
		for a := 0; a < 5; a++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			w := nodes[rng.Intn(len(nodes))]
			duv, dvw, duw := dist(r, u, v, nil), dist(r, v, w, nil), dist(r, u, w, nil)
			if duv == Infinity || dvw == Infinity {
				continue
			}
			if duw > duv+dvw {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInducedDiameterMonotone(t *testing.T) {
	// Removing nodes from the allowed set can only increase (or keep)
	// pairwise restricted distances.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGeometric(12, 10, 5, rng)
		r := RefOf(g)
		all := nodeSet(g)
		sub := make(map[ident.NodeID]bool)
		for v := range all {
			if rng.Intn(3) > 0 {
				sub[v] = true
			}
		}
		for u := range sub {
			for v := range sub {
				if dist(r, u, v, sub) < dist(r, u, v, all) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := RandomGeometric(20, 10, 4, rng)
	buf := make([]ident.NodeID, 0, 8)
	buf = append(buf, 999) // pre-existing content must survive
	got := g.AppendNodes(buf)
	if got[0] != 999 {
		t.Fatal("AppendNodes clobbered the caller's prefix")
	}
	want := g.Nodes()
	if len(got)-1 != len(want) {
		t.Fatalf("AppendNodes len = %d, want %d", len(got)-1, len(want))
	}
	for i, v := range want {
		if got[i+1] != v {
			t.Fatalf("AppendNodes[%d] = %v, want %v", i, got[i+1], v)
		}
	}
	// Neighbors is NeighborsView's owned copy: equal content, own storage.
	for _, v := range want {
		view, own := g.NeighborsView(v), g.Neighbors(v)
		if !slices.Equal(view, own) {
			t.Fatalf("Neighbors(%v) = %v, view %v", v, own, view)
		}
		if len(own) > 0 && &own[0] == &view[0] {
			t.Fatalf("Neighbors(%v) aliases the graph's row", v)
		}
	}
}

// TestRestrictIdentityShares pins the zero-copy hand-off: a restriction
// that keeps every node is a fresh graph value (own pointer) over the
// source's storage, and a restriction that drops a node is not.
func TestRestrictIdentityShares(t *testing.T) {
	// The same over both storage forms: the packed generator output and
	// an ApplyDelta child's rows under their own header.
	packed := Grid(4, 4)
	for _, g := range []*G{packed, ApplyDelta(packed, nil, nil)} {
		all := func(ident.NodeID) bool { return true }
		s := g.Restrict(all)
		if s == g {
			t.Fatal("sibling must be a fresh graph")
		}
		if !s.Equal(g) || s.NumEdges() != g.NumEdges() || !slices.Equal(s.Nodes(), g.Nodes()) {
			t.Fatalf("sibling %v differs from source %v", s, g)
		}
		for _, v := range g.Nodes() {
			a, b := g.NeighborsView(v), s.NeighborsView(v)
			if len(a) == 0 || &a[0] != &b[0] {
				t.Fatalf("row of %v is not shared", v)
			}
		}
		p := g.Restrict(func(v ident.NodeID) bool { return v != 16 })
		if a, b := g.NeighborsView(6), p.NeighborsView(6); &a[0] == &b[0] || !slices.Equal(a, b) {
			t.Fatal("a partial restriction must copy its rows")
		}
	}
}
