package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ident"
)

// Tests of the packed storage form (offsets + arena): construction
// against the map reference, the hand-off of storage from a retired
// graph, and row identity down a delta chain.

// randomRows draws a random roster (sparse IDs, shuffled slot order, some
// nodes isolated) with a symmetric random edge set, and returns it as
// FromRows input in a random row order beside the reference graph.
func randomRows(rng *rand.Rand) (nodes []ident.NodeID, rows []NodeAdj, ref *Ref) {
	n := 1 + rng.Intn(24)
	seen := map[ident.NodeID]bool{}
	for len(nodes) < n {
		if v := ident.NodeID(1 + rng.Intn(200)); !seen[v] {
			seen[v] = true
			nodes = append(nodes, v)
		}
	}
	ref = NewRef()
	for _, v := range nodes {
		ref.AddNode(v)
	}
	for k := rng.Intn(3 * (n + 1)); k > 0 && n > 2; k-- {
		u, v := nodes[rng.Intn(n-2)], nodes[rng.Intn(n-2)] // the last two stay isolated
		ref.AddEdge(u, v)
	}
	for _, i := range rng.Perm(n) {
		rows = append(rows, NodeAdj{Node: nodes[i], Adj: ref.Neighbors(nodes[i])})
	}
	return nodes, rows, ref
}

func TestFromRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var prev *G
	for round := 0; round < 300; round++ {
		nodes, rows, ref := randomRows(rng)
		// prev is nil, the last graph (a different roster: no sharing), or
		// a graph over this very roster (shared index).
		switch round % 3 {
		case 1:
			prev = nil
		case 2:
			prev = FromRows(nil, nodes, rows)
		}
		g := FromRows(prev, nodes, rows)
		if shared := round%3 == 2; (prev != nil && g.idx == prev.idx) != shared {
			t.Fatalf("round %d: index shared %v, want %v", round, !shared, shared)
		}
		checkSame(t, g, ref)
		if g.off == nil || g.adj != nil {
			t.Fatalf("round %d: FromRows result is not packed", round)
		}
		for i, v := range nodes {
			if g.IndexOf(v) != int32(i) {
				t.Fatalf("round %d: slot of %v is %d, want roster position %d", round, v, g.IndexOf(v), i)
			}
		}
		// The rows were copied, not adopted.
		for _, r := range rows {
			if len(r.Adj) > 0 && &r.Adj[0] == &g.NeighborsView(r.Node)[0] {
				t.Fatalf("round %d: row of %v aliases the caller's slice", round, r.Node)
			}
		}
		prev = g
	}
	if g := FromRows(nil, nil, nil); g.NumNodes() != 0 || !g.Equal(&G{}) {
		t.Fatalf("empty roster built %v", g)
	}
}

func TestFromRowsPanicsOnViolations(t *testing.T) {
	nodes := []ident.NodeID{1, 2, 3}
	ok := []NodeAdj{{Node: 1, Adj: []ident.NodeID{2}}, {Node: 2, Adj: []ident.NodeID{1}}, {Node: 3}}
	if g := FromRows(nil, nodes, ok); g.NumEdges() != 1 || !g.HasEdge(2, 1) || len(g.NeighborsView(3)) != 0 {
		t.Fatalf("well-formed rows built %v", g)
	}
	with := func(i int, r NodeAdj) []NodeAdj {
		rows := slices.Clone(ok)
		rows[i] = r
		return rows
	}
	for name, rows := range map[string][]NodeAdj{
		"missing node":     ok[:2],
		"surplus row":      append(slices.Clone(ok), NodeAdj{Node: 3}),
		"duplicate row":    with(2, NodeAdj{Node: 1, Adj: []ident.NodeID{2}}),
		"unknown node":     with(2, NodeAdj{Node: 9}),
		"unknown neighbor": with(2, NodeAdj{Node: 3, Adj: []ident.NodeID{9}}),
		"self-loop":        with(2, NodeAdj{Node: 3, Adj: []ident.NodeID{3}}),
		"unsorted":         with(2, NodeAdj{Node: 3, Adj: []ident.NodeID{2, 1}}),
		"repeated":         with(2, NodeAdj{Node: 3, Adj: []ident.NodeID{1, 1}}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			FromRows(nil, nodes, rows)
		}()
	}
}

// TestFromRowsHandOff: a full rebuild takes its predecessor's offsets and
// arena exactly when the predecessor is retired, packed and shares its
// storage with nobody. Otherwise the result is fresh and the predecessor,
// with whoever shares its storage, reads as before. A graph whose storage
// went on has no rows: reads panic, and the calls that would otherwise
// succeed on nothing say where the rows went.
func TestFromRowsHandOff(t *testing.T) {
	all := func(ident.NodeID) bool { return true }
	for _, tc := range []struct {
		name  string
		prev  func(*deltaWorld) (prev, sharer *G)
		taken bool
	}{
		{"retired", func(w *deltaWorld) (*G, *G) { g := w.build(); g.Retire(); return g, nil }, true},
		{"not retired", func(w *deltaWorld) (*G, *G) { return w.build(), nil }, false},
		{"Restrict sibling", func(w *deltaWorld) (*G, *G) { g := w.build(); s := g.Restrict(all); g.Retire(); return g, s }, false},
		{"delta child", func(w *deltaWorld) (*G, *G) { g := w.build(); g.Retire(); return g, ApplyDelta(g, nil, nil) }, false},
		{"unpacked", func(w *deltaWorld) (*G, *G) { g := ApplyDelta(w.build(), nil, nil); g.Retire(); return g, nil }, false},
		{"nil", func(*deltaWorld) (*G, *G) { return nil, nil }, false},
	} {
		w := newDeltaWorld(10)
		for i := 1; i < 10; i++ {
			w.set(ident.NodeID(i), ident.NodeID(i+1), true)
		}
		tickT := w.build()
		prev, sharer := tc.prev(w)
		var off *uint32
		var arena *ident.NodeID
		if prev != nil && prev.off != nil {
			off, arena = &prev.off[0], &prev.arena[0]
		}
		w.set(2, 3, false) // the same edge count: the storage fits as it is
		w.set(2, 9, true)
		g := FromRows(prev, w.nodes, w.updatesFor(w.nodes))
		if !g.Equal(w.build()) || g.off == nil {
			t.Fatalf("%s: rebuild %v differs from a scratch build", tc.name, g)
		}
		if taken := &g.off[0] == off && &g.arena[0] == arena; taken != tc.taken {
			t.Fatalf("%s: storage taken %v, want %v", tc.name, taken, tc.taken)
		}
		if sharer != nil && !sharer.Equal(tickT) {
			t.Fatalf("%s: the graph sharing prev's storage no longer reads its tick", tc.name)
		}
		if prev == nil {
			continue
		}
		if !tc.taken {
			if !prev.Equal(tickT) {
				t.Fatalf("%s: prev changed", tc.name)
			}
			continue
		}
		if prev.off != nil || prev.arena != nil {
			t.Fatalf("%s: prev kept its storage", tc.name)
		}
		for name, read := range map[string]func(){
			"NeighborsAt":   func() { prev.NeighborsAt(0) },
			"NeighborsView": func() { prev.NeighborsView(3) },
			"HasEdge":       func() { prev.HasEdge(3, 4) },
			"!Restrict":     func() { prev.Restrict(all) },
			"!Equal":        func() { g.Equal(prev) },
			"!ApplyDelta":   func() { ApplyDelta(prev, nil, nil) },
		} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s on a graph whose storage went on did not panic", name)
					}
					if msg, _ := r.(string); name[0] == '!' && !strings.Contains(msg, "FromRows successor") {
						t.Fatalf("%s: panic %v does not say where the rows went", name, r)
					}
				}()
				read()
			}()
		}
	}
}

// TestRowIdentityAcrossDeltaChain pins what the receiver caches key on: a
// row no delta step patched keeps its backing array from the packed base
// through every child, and a patched one moves exactly once — whether each
// child copies its parent's row header or, the parent retired, takes it.
// A parent whose header was taken has no rows left: reads panic, and the
// calls that would otherwise succeed on nothing say why.
func TestRowIdentityAcrossDeltaChain(t *testing.T) {
	for _, retire := range []bool{false, true} {
		w := newDeltaWorld(10)
		for i := 1; i < 10; i++ {
			w.set(ident.NodeID(i), ident.NodeID(i+1), true)
		}
		// rowPtrs records &row[0] of every node (nil for an empty row) while
		// g still has its rows.
		rowPtrs := func(g *G) map[ident.NodeID]*ident.NodeID {
			out := map[ident.NodeID]*ident.NodeID{}
			for _, v := range w.nodes {
				if row := g.NeighborsAt(g.IndexOf(v)); len(row) > 0 {
					out[v] = &row[0]
				}
			}
			return out
		}
		base := w.build()
		pb := rowPtrs(base)
		if retire {
			base.Retire() // packed: no header for a delta child to take
		}
		w.set(1, 2, false) // patches rows 1 (update) and 2 (mirror)
		c1 := ApplyDelta(base, w.updatesFor([]ident.NodeID{1}), nil)
		p1, hdr := rowPtrs(c1), &c1.adj[0]
		if retire {
			c1.Retire()
		}
		w.set(9, 10, false) // rows 9 and 10
		c2 := ApplyDelta(c1, w.updatesFor([]ident.NodeID{10}), nil)
		p2 := rowPtrs(c2)
		if taken := &c2.adj[0] == hdr; taken != retire || taken != (c1.adj == nil) {
			t.Fatalf("retire %v: header taken %v, parent's header %v", retire, taken, c1.adj)
		}
		for v := ident.NodeID(3); v <= 8; v++ {
			if p := pb[v]; p == nil || p != p1[v] || p != p2[v] {
				t.Fatalf("retire %v: untouched row %v moved along the chain", retire, v)
			}
		}
		if pb[2] == p1[2] || p1[2] != p2[2] {
			t.Fatal("row 2: patched by the first step only")
		}
		if pb[9] != p1[9] || p1[9] == p2[9] {
			t.Fatal("row 9: patched by the second step only")
		}
		// The rows of the packed base read the same through every accessor.
		for _, v := range w.nodes {
			if p := pb[v]; p != nil && p != &base.NeighborsView(v)[0] {
				t.Fatalf("NeighborsAt and NeighborsView of %v disagree", v)
			}
		}
		if !c2.Equal(w.build()) {
			t.Fatalf("retire %v: end of chain differs from a scratch build", retire)
		}
		if !retire {
			continue
		}
		all := func(ident.NodeID) bool { return true }
		for name, read := range map[string]func(){
			"NeighborsAt":   func() { c1.NeighborsAt(2) },
			"NeighborsView": func() { c1.NeighborsView(3) },
			"Neighbors":     func() { c1.Neighbors(3) },
			"HasEdge":       func() { c1.HasEdge(3, 4) },
			"Connected":     func() { c1.Connected() },
			"!Restrict":     func() { c1.Restrict(all) },
			"!Equal":        func() { c2.Equal(c1) },
			"!RefOf":        func() { RefOf(c1) },
			"!ApplyDelta":   func() { ApplyDelta(c1, nil, nil) },
		} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s on a parent without rows did not panic", name)
					}
					if msg, _ := r.(string); name[0] == '!' && !strings.Contains(msg, "handed to its ApplyDelta child") {
						t.Fatalf("%s: panic %v does not say where the rows went", name, r)
					}
				}()
				read()
			}()
		}
	}
}

// TestRowSameWithinOneEra pins the proof the receiver caches act on. A
// delta stays in its parent's row era: a row it left untouched is Same
// across it, a patched one is not, and an identity Restrict sibling serves
// Same rows. FromRows starts a new era: when it takes over a retired
// graph's storage, an unchanged topology puts a row in the very window it
// had, and still that row is not Same as the one served before. Any two
// empty rows are Same.
func TestRowSameWithinOneEra(t *testing.T) {
	w := newDeltaWorld(10)
	for i := 1; i < 9; i++ {
		w.set(ident.NodeID(i), ident.NodeID(i+1), true) // node 10 stays isolated
	}
	base := FromRows(w.build(), w.nodes, w.updatesFor(w.nodes)) // an era past the first
	r1, r3, r9 := base.Row(1), base.Row(3), base.Row(9)
	base.Retire()
	w.set(8, 9, false) // patches rows 8 (update) and 9 (mirror)
	c := ApplyDelta(base, w.updatesFor([]ident.NodeID{8}), nil)
	if !c.Row(1).Same(r1) || !c.Row(3).Same(r3) || c.Row(9).Same(r9) {
		t.Fatal("delta: untouched rows 1 and 3 must stay Same, patched row 9 must not")
	}
	if sib := c.Restrict(func(ident.NodeID) bool { return true }); !sib.Row(3).Same(r3) {
		t.Fatal("an identity Restrict left the row era")
	}
	if !c.Row(10).Same(Row{}) || !c.Row(99).Same(c.Row(10)) || c.Row(99).IDs() != nil {
		t.Fatal("empty rows, isolated or absent, must be Same")
	}

	g := w.build()
	r1 = g.Row(1)
	g.Retire()
	next := FromRows(g, w.nodes, w.updatesFor(w.nodes)) // same rows, taken storage
	now := next.Row(1)
	if &now.IDs()[0] != &r1.IDs()[0] || !slices.Equal(now.IDs(), r1.IDs()) || now.Same(r1) {
		t.Fatal("FromRows over taken storage: row 1 must recur in its window and not be Same")
	}
	if !next.Row(3).Same(next.Row(3)) {
		t.Fatal("a row is not Same as itself")
	}
}

// TestReadersAgreeAcrossForms reads one graph through every accessor in
// both storage forms — packed, and an ApplyDelta child's rows under their
// own header — and against the map reference: row(i) is the only place
// that knows the difference.
func TestReadersAgreeAcrossForms(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := RefOf(RandomGeometric(40, 12, 3, rng))
	ref.AddNode(77) // isolated
	packed := FromRef(ref)
	unpacked := ApplyDelta(packed, nil, nil)
	if unpacked.off != nil || packed.off == nil {
		t.Fatal("expected one graph of each form")
	}
	if ref.NumNodes() != packed.NumNodes() || !packed.Equal(unpacked) || !unpacked.Equal(packed) {
		t.Fatalf("packed %v, unpacked %v, reference n=%d", packed, unpacked, ref.NumNodes())
	}
	comp := map[ident.NodeID]bool{}
	for v := range ref.BFSFrom(1, nil) {
		comp[v] = true
	}
	for _, g := range []*G{unpacked, packed} {
		checkSame(t, g, ref)
		if g.String() != packed.String() || g.IndexOf(999) != -1 || g.Neighbors(999) != nil || g.HasEdge(999, 1) {
			t.Fatalf("%v: unknown-node queries", g)
		}
		for _, v := range g.Nodes() {
			for _, u := range g.NeighborsView(v) {
				if !ref.HasEdge(v, u) {
					t.Fatalf("phantom edge %v-%v", v, u)
				}
			}
			if !slices.Equal(g.NeighborsView(v), g.NeighborsAt(g.IndexOf(v))) {
				t.Fatalf("NeighborsView(%v) and NeighborsAt disagree", v)
			}
		}
		if !g.Restrict(in(comp)).Connected() || g.Restrict(in(set(1, 77))).Connected() {
			t.Fatal("Connected disagrees with the BFS component")
		}
		if got, want := RefOf(g).InducedDiameter(comp), ref.InducedDiameter(comp); got != want {
			t.Fatalf("InducedDiameter = %d, reference %d", got, want)
		}
		if g.Connected() || diameter(g) != Infinity {
			t.Fatal("a graph with an isolated node is disconnected, of infinite diameter")
		}
	}
}
