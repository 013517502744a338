package graph

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ident"
)

// deltaWorld is a little harness: a symmetric edge-presence table over n
// nodes from which both the bulk-built graph and ApplyDelta updates are
// derived, so the patched result can always be checked against a
// from-scratch build.
type deltaWorld struct {
	n     int
	nodes []ident.NodeID
	edge  map[[2]ident.NodeID]bool
}

func newDeltaWorld(n int) *deltaWorld {
	w := &deltaWorld{n: n, edge: map[[2]ident.NodeID]bool{}}
	for i := 1; i <= n; i++ {
		w.nodes = append(w.nodes, ident.NodeID(i))
	}
	return w
}

func (w *deltaWorld) key(u, v ident.NodeID) [2]ident.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]ident.NodeID{u, v}
}

func (w *deltaWorld) set(u, v ident.NodeID, on bool) { w.edge[w.key(u, v)] = on }

// build is the packed graph of the table, through FromRows.
func (w *deltaWorld) build() *G { return FromRows(nil, w.nodes, w.updatesFor(w.nodes)) }

// adjOf derives u's full ascending adjacency from the table.
func (w *deltaWorld) adjOf(u ident.NodeID) []ident.NodeID {
	var out []ident.NodeID
	for _, v := range w.nodes {
		if v != u && w.edge[w.key(u, v)] {
			out = append(out, v)
		}
	}
	return out
}

func (w *deltaWorld) updatesFor(dirty []ident.NodeID) []NodeAdj {
	out := make([]NodeAdj, 0, len(dirty))
	for _, u := range dirty {
		out = append(out, NodeAdj{Node: u, Adj: w.adjOf(u)})
	}
	return out
}

func TestApplyDeltaMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newDeltaWorld(30)
	for i := 0; i < 80; i++ {
		u := w.nodes[rng.Intn(w.n)]
		v := w.nodes[rng.Intn(w.n)]
		if u != v {
			w.set(u, v, true)
		}
	}
	prev := w.build()
	for round := 0; round < 60; round++ {
		// Flip a few pair states around a small dirty set.
		dirtySet := map[ident.NodeID]bool{}
		k := 1 + rng.Intn(4)
		for i := 0; i < k; i++ {
			dirtySet[w.nodes[rng.Intn(w.n)]] = true
		}
		for u := range dirtySet {
			for j := 0; j < 3; j++ {
				v := w.nodes[rng.Intn(w.n)]
				if v != u {
					w.set(u, v, rng.Intn(2) == 0)
				}
			}
		}
		var dirty []ident.NodeID
		for u := range dirtySet {
			dirty = append(dirty, u)
		}
		// The dirty set must cover every endpoint whose row changed: a
		// flipped pair (u,v) with v clean is mirrored by ApplyDelta, but
		// v's row derives from u's update, so only u needs to be dirty.
		var changed []ident.NodeID
		got := ApplyDelta(prev, w.updatesFor(dirty), &changed)
		want := w.build()
		if !got.Equal(want) {
			t.Fatalf("round %d: patched %v vs scratch %v", round, got, want)
		}
		checkChanged(t, changed, prev, want, w.nodes)
		if got.NumEdges() != want.NumEdges() {
			t.Fatalf("round %d: edge count %d vs %d", round, got.NumEdges(), want.NumEdges())
		}
		for _, v := range w.nodes {
			a, b := got.NeighborsView(v), want.NeighborsView(v)
			if len(a) != len(b) {
				t.Fatalf("round %d: row %v: %v vs %v", round, v, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round %d: row %v: %v vs %v", round, v, a, b)
				}
			}
		}
		prev = got
	}
}

// checkChanged requires ApplyDelta's changed list to name, each once,
// exactly the nodes whose row differs between before and after.
func checkChanged(t *testing.T, changed []ident.NodeID, before, after *G, nodes []ident.NodeID) {
	t.Helper()
	var moved []ident.NodeID
	for _, v := range nodes {
		if !slices.Equal(before.NeighborsView(v), after.NeighborsView(v)) {
			moved = append(moved, v)
		}
	}
	if got := slices.Sorted(slices.Values(changed)); !slices.Equal(got, moved) {
		t.Fatalf("ApplyDelta reported the rows %v changed, the rows %v differ", got, moved)
	}
}

func TestApplyDeltaLeavesPrevIntact(t *testing.T) {
	// Over a bulk-built base and a delta child (an empty delta of it).
	for _, child := range []bool{false, true} {
		w := newDeltaWorld(8)
		w.set(1, 2, true)
		w.set(2, 3, true)
		w.set(3, 4, true)
		prev := w.build()
		if child {
			prev = ApplyDelta(prev, nil, nil)
		}
		if bulk := prev.arena != nil; bulk == child {
			t.Fatalf("base has an arena %v with child = %v", bulk, child)
		}
		snapshot := w.build()

		w.set(2, 3, false)
		w.set(2, 5, true)
		g := ApplyDelta(prev, w.updatesFor([]ident.NodeID{2}), nil)
		if !prev.Equal(snapshot) {
			t.Fatal("ApplyDelta mutated prev")
		}
		if g.HasEdge(2, 3) || !g.HasEdge(2, 5) || !g.HasEdge(1, 2) {
			t.Fatalf("patched graph wrong: %v", g.NeighborsView(2))
		}
		if a, b := prev.NeighborsView(4), g.NeighborsView(4); &a[0] != &b[0] {
			t.Fatal("an untouched row must be shared with prev")
		}
	}
}

// TestRetiredPrevWithSiblingIsCopied: an identity Restrict holds prev
// itself, so a retired prev's child copies the header all the same, and
// the holder keeps reading its own tick however far the lineage (handing
// headers on from the next step) moves on.
func TestRetiredPrevWithSiblingIsCopied(t *testing.T) {
	w := newDeltaWorld(12)
	for i := 1; i < 12; i++ {
		w.set(ident.NodeID(i), ident.NodeID(i+1), true)
	}
	prev := ApplyDelta(w.build(), nil, nil)
	sib := prev.Restrict(func(ident.NodeID) bool { return true }) // prev itself, held
	tickT := w.build()
	hdr := &prev.adj[0]
	for step := 0; step < 4; step++ {
		u := ident.NodeID(2 + 3*step)
		w.set(u, u+1, false)
		w.set(u, 1, true)
		prev.Retire()
		g := ApplyDelta(prev, w.updatesFor([]ident.NodeID{u}), nil)
		if !g.Equal(w.build()) {
			t.Fatalf("step %d: child differs from a scratch build", step)
		}
		if step == 0 && (prev.adj == nil || &g.adj[0] == hdr || !prev.Equal(tickT)) {
			t.Fatal("a held prev must be copied and stay intact")
		} else if step > 0 && prev.adj != nil {
			t.Fatalf("step %d: an unshared retired prev must be taken", step)
		}
		if !sib.Equal(tickT) || &sib.adj[0] != hdr {
			t.Fatalf("step %d: the holder no longer reads tick t", step)
		}
		prev = g
	}
}

func TestApplyDeltaEmptyUpdates(t *testing.T) {
	w := newDeltaWorld(5)
	w.set(1, 2, true)
	prev := w.build()
	g := ApplyDelta(prev, nil, nil)
	if !g.Equal(prev) {
		t.Fatal("empty delta changed the graph")
	}
	if g == prev {
		t.Fatal("empty delta must still return a fresh graph (graph identity is the pointer)")
	}
}

func TestApplyDeltaPanicsOnViolations(t *testing.T) {
	w := newDeltaWorld(4)
	w.set(1, 2, true)
	// Retired: a rejected delta must not have taken the header.
	prev := ApplyDelta(w.build(), nil, nil)
	prev.Retire()
	defer func() {
		if !prev.Equal(w.build()) {
			t.Fatal("a rejected delta left prev without its rows")
		}
	}()
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("unknown node", func() {
		ApplyDelta(prev, []NodeAdj{{Node: 99}}, nil)
	})
	expectPanic("unknown neighbor", func() {
		ApplyDelta(prev, []NodeAdj{{Node: 1, Adj: []ident.NodeID{99}}}, nil)
	})
	expectPanic("self loop", func() {
		ApplyDelta(prev, []NodeAdj{{Node: 1, Adj: []ident.NodeID{1}}}, nil)
	})
	expectPanic("unsorted", func() {
		ApplyDelta(prev, []NodeAdj{{Node: 1, Adj: []ident.NodeID{3, 2}}}, nil)
	})
	expectPanic("duplicate update", func() {
		ApplyDelta(prev, []NodeAdj{{Node: 1}, {Node: 1}}, nil)
	})
}

// FuzzApplyDelta drives random base graphs and random consistent dirty-set
// updates and requires the patched CSR to equal a from-scratch FromRows
// build of the mutated edge table — rows, edge counts, and the
// untouchability of prev included. Two bits of churn choose how prev is
// held: 0x80 makes it a delta child and retires it, so the child may take
// its row header (prev must then be left without rows, not with the
// child's), and 0x40 holds it through an identity Restrict first, which
// must block exactly that and go on reading prev's tick through the
// chained step.
func FuzzApplyDelta(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3))
	f.Add(int64(42), uint8(20), uint8(1))
	f.Add(int64(-9), uint8(3), uint8(7))
	f.Add(int64(5), uint8(12), uint8(0x82))
	f.Add(int64(6), uint8(12), uint8(0xc4))
	f.Add(int64(7), uint8(9), uint8(0x41))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, churn uint8) {
		retire, sibling := churn&0x80 != 0, churn&0x40 != 0
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%24)
		w := newDeltaWorld(n)
		for i := 0; i < 3*n; i++ {
			u := w.nodes[rng.Intn(n)]
			v := w.nodes[rng.Intn(n)]
			if u != v {
				w.set(u, v, rng.Intn(3) > 0)
			}
		}
		prev := w.build()
		if retire {
			prev = ApplyDelta(prev, nil, nil) // a header over its parent's arena
		}
		snapshot := w.build()
		var sib *G
		if sibling {
			sib = prev.Restrict(func(ident.NodeID) bool { return true })
		}
		if retire {
			prev.Retire()
		}

		dirtySet := map[ident.NodeID]bool{}
		for i := 0; i <= int(churn%5); i++ {
			dirtySet[w.nodes[rng.Intn(n)]] = true
		}
		for u := range dirtySet {
			for j := 0; j < 1+rng.Intn(4); j++ {
				v := w.nodes[rng.Intn(n)]
				if v != u {
					w.set(u, v, rng.Intn(2) == 0)
				}
			}
		}
		var dirty []ident.NodeID
		for _, v := range w.nodes { // ascending, deterministic
			if dirtySet[v] {
				dirty = append(dirty, v)
			}
		}
		var changed []ident.NodeID
		got := ApplyDelta(prev, w.updatesFor(dirty), &changed)
		want := w.build()
		if !got.Equal(want) {
			t.Fatalf("patched %v vs scratch %v (dirty %v)", got, want, dirty)
		}
		checkChanged(t, changed, snapshot, want, w.nodes)
		if taken := retire && !sibling; taken != (prev.adj == nil) {
			t.Fatalf("retire %v, sibling %v: prev.adj = %v", retire, sibling, prev.adj)
		} else if !taken && !prev.Equal(snapshot) {
			t.Fatal("ApplyDelta mutated prev")
		}
		// Chained delta over the patched result must also hold up.
		if len(dirty) > 0 {
			u := dirty[0]
			for j := 0; j < 2; j++ {
				v := w.nodes[rng.Intn(n)]
				if v != u {
					w.set(u, v, rng.Intn(2) == 0)
				}
			}
			if retire {
				got.Retire()
			}
			got2 := ApplyDelta(got, w.updatesFor(dirty[:1]), nil)
			if want2 := w.build(); !got2.Equal(want2) {
				t.Fatalf("chained patch %v vs scratch %v", got2, want2)
			}
			if retire != (got.adj == nil) {
				t.Fatalf("retire %v: chained prev.adj = %v", retire, got.adj)
			}
		}
		if sibling && !sib.Equal(snapshot) {
			t.Fatal("a later delta wrote through the holder's header")
		}
	})
}
