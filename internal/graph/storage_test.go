package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ident"
)

// Tests of the storage (a row header over an arena or a parent's rows):
// construction against the map reference, the hand-off of storage from a
// retired graph, and row identity down a delta chain.

// laidOut reports whether g's rows are the cap-clamped windows of its
// arena, in slot order, that a bulk build lays out.
func laidOut(g *G) bool {
	at := 0
	for _, row := range g.adj {
		if cap(row) != len(row) || at+len(row) > len(g.arena) || len(row) > 0 && &row[0] != &g.arena[at] {
			return false
		}
		at += len(row)
	}
	return at == len(g.arena)
}

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
		if !laidOut(g) {
			t.Fatalf("round %d: FromRows did not lay its rows out in its arena", round)
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

// TestFromRowsHandOff: a full rebuild takes its predecessor's row header,
// and its arena if it has one, exactly when the predecessor is retired and
// shared with nobody. Over a new roster it takes the predecessor's node
// index and node list with the header, unless a graph that still reads
// them holds the roster. Otherwise the result is fresh and the
// predecessor, with whoever reads its storage, reads as before, its own
// roster included. A graph whose storage went on has no rows: reads
// panic, and the calls that would otherwise succeed on nothing say where
// the rows went, and a second successor of it takes nothing.
func TestFromRowsHandOff(t *testing.T) {
	all := func(ident.NodeID) bool { return true }
	for _, tc := range []struct {
		name                  string
		prev                  func(*deltaWorld) (prev, reader *G)
		header, arena, roster bool // taken
	}{
		{"retired bulk-built", func(w *deltaWorld) (*G, *G) { g := w.build(); g.Retire(); return g, nil }, true, true, true},
		{"retired delta child", func(w *deltaWorld) (*G, *G) { g := ApplyDelta(w.build(), nil, nil); g.Retire(); return g, nil }, true, false, false},
		{"retired delta child of a retired parent", func(w *deltaWorld) (*G, *G) {
			g := w.build()
			g.Retire()
			c := ApplyDelta(g, nil, nil)
			c.Retire()
			return c, nil
		}, true, false, true},
		{"retired successor of a kept roster", func(w *deltaWorld) (*G, *G) {
			g := w.build()
			s := FromRows(g, w.nodes, w.updatesFor(w.nodes))
			s.Retire()
			return s, g
		}, true, true, false},
		{"rows already handed on", func(w *deltaWorld) (*G, *G) {
			g := w.build()
			g.Retire()
			return g, FromRows(g, w.nodes, w.updatesFor(w.nodes))
		}, false, false, false},
		{"held", func(w *deltaWorld) (*G, *G) { g := w.build(); h := g.Restrict(all); g.Retire(); return g, h }, false, false, false},
		{"delta parent", func(w *deltaWorld) (*G, *G) { g := w.build(); c := ApplyDelta(g, nil, nil); g.Retire(); return g, c }, false, false, false},
		{"not retired", func(w *deltaWorld) (*G, *G) { return w.build(), nil }, false, false, false},
		{"nil", func(*deltaWorld) (*G, *G) { return nil, nil }, false, false, false},
	} {
		for _, churn := range []bool{false, true} {
			name := tc.name
			if churn {
				name += ", new roster"
			}
			w := newDeltaWorld(10)
			for i := 1; i < 10; i++ {
				w.set(ident.NodeID(i), ident.NodeID(i+1), true)
			}
			tickT := w.build()
			prev, reader := tc.prev(w)
			var hdr [][]ident.NodeID
			var arena, slot0 *ident.NodeID
			var idx *ident.Table[int32]
			hadRows := prev != nil && prev.adj != nil
			if prev != nil {
				hdr, idx, slot0 = prev.adj, prev.idx, &prev.nodes[0]
				if len(prev.arena) > 0 {
					arena = &prev.arena[0]
				}
			}
			w.set(2, 3, false) // the same edge count: the storage fits as it is
			w.set(2, 9, true)
			if churn { // 1 leaves, 12 joins: the roster keeps its length
				w.nodes = append(w.nodes[1:], 12)
				w.set(12, 5, true)
			}
			g := FromRows(prev, w.nodes, w.updatesFor(w.nodes))
			if !g.Equal(w.build()) || !laidOut(g) {
				t.Fatalf("%s: rebuild %v differs from a scratch build", name, g)
			}
			header, arenaTaken := hdr != nil && &g.adj[0] == &hdr[0], &g.arena[0] == arena
			if header != tc.header || arenaTaken != tc.arena {
				t.Fatalf("%s: header taken %v, arena taken %v; want %v, %v", name, header, arenaTaken, tc.header, tc.arena)
			}
			// Over an equal roster any prev lends its roster; over a new one
			// the roster goes on with the header, unless it is held.
			roster, list := g.idx == idx, &g.nodes[0] == slot0
			if want := prev != nil && (!churn || tc.roster); roster != want || list != want {
				t.Fatalf("%s: index taken %v, node list taken %v; want %v", name, roster, list, want)
			}
			if reader != nil && !reader.Equal(tickT) {
				t.Fatalf("%s: the graph reading prev's storage no longer reads its tick", name)
			}
			if prev == nil {
				continue
			}
			if !tc.header {
				if hadRows && !prev.Equal(tickT) {
					t.Fatalf("%s: prev changed", name)
				}
				continue
			}
			if prev.adj != nil || prev.arena != nil {
				t.Fatalf("%s: prev kept its storage", name)
			}
			for call, read := range map[string]func(){
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
							t.Fatalf("%s: %s on a graph whose storage went on did not panic", name, call)
						}
						if msg, _ := r.(string); call[0] == '!' && !strings.Contains(msg, "FromRows successor") {
							t.Fatalf("%s: %s: panic %v does not say where the rows went", name, call, r)
						}
					}()
					read()
				}()
			}
		}
	}
}

// TestRowIdentityAcrossDeltaChain pins what the receiver caches key on: a
// row no delta step patched keeps its backing array from the bulk-built
// base through every child, and a patched one moves exactly once — whether
// each child copies its parent's row header or, the parent retired, takes
// it, the base's included. A parent whose header was taken has no rows
// left: reads panic, and the calls that would otherwise succeed on nothing
// say why.
func TestRowIdentityAcrossDeltaChain(t *testing.T) {
	for _, retire := range []bool{false, true} {
		w := newDeltaWorld(10)
		for i := 1; i < 10; i++ {
			w.set(ident.NodeID(i), ident.NodeID(i+1), true)
		}
		// rowPtrs records &row[0] of every node (nil for an empty row) while
		// g still has its rows, checking NeighborsAt against NeighborsView.
		rowPtrs := func(g *G) map[ident.NodeID]*ident.NodeID {
			out := map[ident.NodeID]*ident.NodeID{}
			for _, v := range w.nodes {
				if row := g.NeighborsAt(g.IndexOf(v)); len(row) > 0 {
					if &row[0] != &g.NeighborsView(v)[0] {
						t.Fatalf("NeighborsAt and NeighborsView of %v disagree", v)
					}
					out[v] = &row[0]
				}
			}
			return out
		}
		// step derives a child of prev, retired first when retire is set,
		// and checks that it took prev's header exactly then.
		step := func(prev *G, updates []NodeAdj) *G {
			hdr := &prev.adj[0]
			if retire {
				prev.Retire()
			}
			g := ApplyDelta(prev, updates, nil)
			if taken := &g.adj[0] == hdr; taken != retire || taken != (prev.adj == nil) {
				t.Fatalf("retire %v: header taken %v, parent's header %v", retire, taken, prev.adj)
			}
			return g
		}
		base := w.build()
		pb := rowPtrs(base)
		w.set(1, 2, false) // patches rows 1 (update) and 2 (mirror)
		c1 := step(base, w.updatesFor([]ident.NodeID{1}))
		p1 := rowPtrs(c1)
		w.set(9, 10, false) // rows 9 and 10
		c2 := step(c1, w.updatesFor([]ident.NodeID{10}))
		p2 := rowPtrs(c2)
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
		if !c2.Equal(w.build()) {
			t.Fatalf("retire %v: end of chain differs from a scratch build", retire)
		}
		if !retire {
			continue
		}
		all := func(ident.NodeID) bool { return true }
		for _, parent := range []*G{base, c1} {
			for name, read := range map[string]func(){
				"NeighborsAt":   func() { parent.NeighborsAt(2) },
				"NeighborsView": func() { parent.NeighborsView(3) },
				"Neighbors":     func() { parent.Neighbors(3) },
				"HasEdge":       func() { parent.HasEdge(3, 4) },
				"Connected":     func() { parent.Connected() },
				"!Restrict":     func() { parent.Restrict(all) },
				"!Equal":        func() { c2.Equal(parent) },
				"!RefOf":        func() { RefOf(parent) },
				"!ApplyDelta":   func() { ApplyDelta(parent, nil, nil) },
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
}

// TestRowSameWithinOneEra pins the proof the receiver caches act on. A
// delta stays in its parent's row era: a row it left untouched is Same
// across it, a patched one is not, and an identity Restrict, the graph
// itself, serves Same rows. FromRows starts a new era: when it takes over a retired
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
	if held := c.Restrict(func(ident.NodeID) bool { return true }); held != c || !held.Row(3).Same(r3) {
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

// TestReadersAgreeAcrossForms reads a bulk-built graph and an ApplyDelta
// child of it — its own header, its rows in the parent's arena — through
// every accessor and against the map reference: they read alike.
func TestReadersAgreeAcrossForms(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := RefOf(RandomGeometric(40, 12, 3, rng))
	ref.AddNode(77) // isolated
	bulk := FromRef(ref)
	child := ApplyDelta(bulk, nil, nil)
	if !laidOut(bulk) || child.arena != nil || &child.adj[0] == &bulk.adj[0] {
		t.Fatal("expected a bulk-built graph and a delta child with its own header")
	}
	if ref.NumNodes() != bulk.NumNodes() || !bulk.Equal(child) || !child.Equal(bulk) {
		t.Fatalf("bulk-built %v, delta child %v, reference n=%d", bulk, child, ref.NumNodes())
	}
	comp := map[ident.NodeID]bool{}
	for v := range ref.BFSFrom(1, nil) {
		comp[v] = true
	}
	for _, g := range []*G{child, bulk} {
		checkSame(t, g, ref)
		if g.String() != bulk.String() || g.IndexOf(999) != -1 || g.Neighbors(999) != nil || g.HasEdge(999, 1) {
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
