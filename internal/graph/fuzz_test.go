package graph

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/ident"
)

// FuzzCSROps replays an arbitrary edit/query sequence decoded from the
// fuzz input on a Ref and packs it after every op (FromRef), asserting
// that every observable of the packed graph, of its identity Restrict (the
// graph itself) and of an ApplyDelta child agrees with the Ref. Each input byte
// pair is one op: the first byte mod 5 selects the operation, the second
// the operand nodes (high and low nibble, plus one) — a small ID space
// keeps collisions (re-adds, double-removes, duplicate edges) frequent.
// When the op kept the roster, the child patches the graph packed before
// the op with the rows of the two operands (all an edge edit changes);
// otherwise it is an empty delta of the new graph. The graph packed
// before the op must still agree with a copy of the Ref taken then: no
// later pack, restriction or delta writes to it.
func FuzzCSROps(f *testing.F) {
	f.Add([]byte{0x00, 0x12, 0x02, 0x23, 0x02, 0x31, 0x03, 0x23})
	f.Add([]byte{0x02, 0x12, 0x02, 0x13, 0x02, 0x14, 0x01, 0x01, 0x02, 0x12})
	f.Add([]byte{0x00, 0x01, 0x00, 0x01, 0x01, 0x01, 0x03, 0x11, 0x02, 0x11})
	f.Add([]byte{0x02, 0xab, 0x02, 0xba, 0x02, 0xcd, 0x01, 0x0b, 0x02, 0xdc})
	// A path, restricted to its even nodes before and after a cut.
	f.Add([]byte{0x02, 0x12, 0x02, 0x23, 0x02, 0x34, 0x04, 0x00, 0x03, 0x23, 0x04, 0x00})
	// Edge edits over a fixed roster: every step is a patching delta.
	f.Add([]byte{0x00, 0x50, 0x02, 0x12, 0x02, 0x34, 0x02, 0x15, 0x03, 0x12, 0x02, 0x25, 0x03, 0x34, 0x03, 0x15})
	// Edits naming absent nodes.
	f.Add([]byte{0x03, 0x9a, 0x01, 0x90, 0x02, 0x12, 0x03, 0x19, 0x01, 0x20})
	// A clique on four nodes, then a removal of each kind.
	f.Add([]byte{0x02, 0x12, 0x02, 0x13, 0x02, 0x23, 0x02, 0x14, 0x02, 0x24, 0x02, 0x34, 0x01, 0x20, 0x03, 0x13, 0x04, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		all := func(ident.NodeID) bool { return true }
		ref := NewRef()
		prev, prevRef := FromRef(ref), NewRef()
		for i := 0; i+1 < len(data); i += 2 {
			a := ident.NodeID(data[i+1]>>4) + 1
			b := ident.NodeID(data[i+1]&0xf) + 1
			switch data[i] % 5 {
			case 0:
				ref.AddNode(a)
			case 1:
				ref.RemoveNode(a)
			case 2:
				ref.AddEdge(a, b)
			case 3:
				ref.RemoveEdge(a, b)
			case 4:
				// Restrict to even IDs and compare against the reference
				// restricted the slow way.
				keep := func(v ident.NodeID) bool { return v%2 == 0 }
				r := prev.Restrict(keep)
				for _, v := range ref.Nodes() {
					if !keep(v) {
						if r.HasNode(v) {
							t.Fatalf("restrict kept %v", v)
						}
						continue
					}
					var want []ident.NodeID
					for _, u := range ref.Neighbors(v) {
						if keep(u) {
							want = append(want, u)
						}
					}
					if !slices.Equal(want, r.Neighbors(v)) {
						t.Fatalf("restrict neighbors of %v: %v vs %v", v, r.Neighbors(v), want)
					}
				}
			}
			g := FromRef(ref)
			checkSame(t, g, ref)
			checkSame(t, g.Restrict(all), ref)
			child := ApplyDelta(g, nil, nil)
			if slices.Equal(prev.Nodes(), g.Nodes()) {
				var upd []NodeAdj
				for _, v := range []ident.NodeID{a, b} {
					if ref.HasNode(v) && (len(upd) == 0 || upd[0].Node != v) {
						upd = append(upd, NodeAdj{Node: v, Adj: ref.Neighbors(v)})
					}
				}
				child = ApplyDelta(prev, upd, nil)
			}
			checkSame(t, child, ref)
			checkSame(t, prev, prevRef)
			prev, prevRef = g, ref.clone()
		}
	})
}

// clone deep-copies the reference graph.
func (g *Ref) clone() *Ref {
	out := NewRef()
	for v, nb := range g.adj {
		out.adj[v] = maps.Clone(nb)
	}
	return out
}

// FuzzCSRFromRows decodes an arbitrary edge list (self-loops and
// duplicates included) from the fuzz input into the reference, bulk-builds
// the CSR graph from the reference's rows — the roster in first-seen order,
// the rows in reverse — and asserts it matches the reference: construction
// and neighbor iteration both. Then it runs a lineage of rebuilds and
// deltas that hand storage on, and re-checks every graph held on the way.
func FuzzCSRFromRows(f *testing.F) {
	f.Add([]byte{0x12, 0x23, 0x31, 0x11, 0x23, 0x23})
	f.Add([]byte{0xab, 0xbc, 0xcd, 0xde, 0xea})
	f.Add([]byte{0x11, 0x22, 0x33})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0x21, 0x43, 0x65, 0x87})
	// Two lineages in which a holder's roster outlives a descendant's
	// roster change: step 2 rebuilds over a new roster order; step 3 holds
	// the result and derives a delta child (the first seed), or derives a
	// retired delta child that step 4 holds and rebuilds over the same
	// order (the second); step 5, retired, rebuilds over no node at all.
	f.Add([]byte{0x12, 0x23, 0x34, 0x01, 0x45, 0x00, 0x56, 0x01, 0x67, 0x78, 0x89, 0x9a, 0x00, 0xab, 0x06, 0xbc})
	f.Add([]byte{0x12, 0x23, 0x34, 0x01, 0x45, 0x06, 0x56, 0x01, 0x67, 0x78, 0x89, 0x9a, 0x06, 0xab, 0x06, 0xbc})
	f.Fuzz(func(t *testing.T, data []byte) {
		var nodes []ident.NodeID
		ref := NewRef()
		add := func(v ident.NodeID) {
			if !ref.HasNode(v) {
				nodes = append(nodes, v)
				ref.AddNode(v)
			}
		}
		for i, x := range data {
			u := ident.NodeID(x>>4) + 1
			v := ident.NodeID(x&0xf) + 1
			if i%3 == 0 {
				add(u)
			}
			if u != v {
				add(u)
				add(v)
				ref.AddEdge(u, v)
			}
		}
		rows := make([]NodeAdj, 0, len(nodes))
		for i := len(nodes) - 1; i >= 0; i-- {
			rows = append(rows, NodeAdj{Node: nodes[i], Adj: ref.Neighbors(nodes[i])})
		}
		g := FromRows(nil, nodes, rows)
		checkSame(t, g, ref)
		if !slices.Equal(g.nodes, nodes) {
			t.Fatalf("slots follow %v, not the roster %v", g.nodes, nodes)
		}
		// The shared-index rebuild from g's own rows must agree too.
		roster := g.Nodes()
		g2 := FromRows(g, slices.Clone(g.nodes), rowsOf(g))
		if g2.idx != g.idx {
			t.Fatal("rebuild over an equal roster did not share the index")
		}
		checkSame(t, g2, ref)
		if !slices.Equal(roster, g2.Nodes()) {
			t.Fatal("shared-index rebuild changed the roster")
		}
		// A lineage from g. Each step's control byte may hold cur (an
		// identity Restrict), retire it, and derive the next graph by a delta
		// that toggles edges over cur's roster, or else by a rebuild over
		// another edge set and, every other step, another roster order; at
		// steps 3 and 7 the first node leaves and a node from another index
		// page joins. Step 2 adds a clique, which grows the storage past its
		// capacity; step 4 has no edge, step 5 no node. A retired cur that
		// nobody holds hands its rows on, and its roster with them unless a
		// graph that still reads it holds it; any other cur, and every holder
		// at the end, still reads its own tick.
		type held struct {
			g   *G
			ref *Ref
		}
		var holders []held
		cur, curRef := g, ref
		for step := 1; step <= 7; step++ {
			ctl := byte(step)
			if len(data) > 0 {
				ctl ^= data[(7*step)%len(data)]
			}
			hold, retire := ctl&2 != 0, ctl&4 != 0
			if hold {
				holders = append(holders, held{cur.Restrict(func(ident.NodeID) bool { return true }), curRef.clone()})
			}
			if retire {
				cur.Retire()
			}
			var next *G
			nextRef := NewRef()
			if ctl&1 != 0 {
				roster := cur.Nodes()
				nextRef = curRef.clone()
				moved := map[ident.NodeID]bool{}
				for i, x := range data {
					if len(roster) == 0 || (i+step)%2 != 0 {
						continue
					}
					a, b := roster[int(x>>4)%len(roster)], roster[(int(x&0xf)+step)%len(roster)]
					if a == b {
						continue
					}
					if nextRef.HasEdge(a, b) {
						nextRef.RemoveEdge(a, b)
					} else {
						nextRef.AddEdge(a, b)
					}
					moved[a] = true
				}
				var upd []NodeAdj
				for _, v := range roster {
					if moved[v] {
						upd = append(upd, NodeAdj{Node: v, Adj: nextRef.Neighbors(v)})
					}
				}
				next = ApplyDelta(cur, upd, nil)
			} else {
				roster := slices.Clone(nodes)
				if step%2 == 0 {
					slices.Reverse(roster)
				}
				if step%4 == 3 && len(roster) > 0 {
					roster = append(roster[1:], ident.NodeID(4096+step))
				}
				if step == 5 {
					roster = nil
				}
				for _, v := range roster {
					nextRef.AddNode(v)
				}
				for i, x := range data {
					if step != 4 && len(roster) > 0 && (i+step)%3 != 0 {
						nextRef.AddEdge(roster[int(x>>4)%len(roster)], roster[(int(x&0xf)+step)%len(roster)])
					}
				}
				for i := 0; step == 2 && i < min(8, len(roster)); i++ {
					for j := 0; j < i; j++ {
						nextRef.AddEdge(roster[i], roster[j])
					}
				}
				rows := make([]NodeAdj, 0, len(roster))
				for _, v := range roster {
					rows = append(rows, NodeAdj{Node: v, Adj: nextRef.Neighbors(v)})
				}
				next = FromRows(cur, roster, rows)
			}
			checkSame(t, next, nextRef)
			taken := retire && !hold && cur.NumNodes() > 0
			if got := cur.NumNodes() > 0 && cur.adj == nil; got != taken {
				t.Fatalf("step %d (retired %v, held %v): rows handed on %v", step, retire, hold, got)
			} else if !taken {
				checkSame(t, cur, curRef)
			} else if cur.arena != nil {
				t.Fatalf("step %d: a predecessor that handed its rows on kept its arena", step)
			}
			cur, curRef = next, nextRef
		}
		for i, h := range holders {
			checkSame(t, h.g, h.ref)
			if !h.g.shared {
				t.Fatalf("holder %d is not marked shared", i)
			}
		}
	})
}

// checkSame asserts every observable of the CSR graph matches the
// reference: roster, edge count, per-node neighbor slices (content and
// ascending order), HasEdge and connectivity; and that RefOf copies g
// into a reference graph equal to it.
func checkSame(t *testing.T, g *G, ref *Ref) {
	t.Helper()
	if !ref.SameAs(g) {
		t.Fatalf("graphs diverged: %s vs ref n=%d m=%d", g, ref.NumNodes(), ref.NumEdges())
	}
	if !RefOf(g).SameAs(g) {
		t.Fatalf("RefOf(%s) is not the same graph", g)
	}
	nodes := ref.Nodes()
	if !slices.Equal(nodes, g.Nodes()) {
		t.Fatalf("rosters diverged: %v vs %v", g.Nodes(), nodes)
	}
	for _, v := range nodes {
		want := ref.Neighbors(v)
		if !slices.Equal(want, g.Neighbors(v)) {
			t.Fatalf("neighbors of %v: %v vs %v", v, g.Neighbors(v), want)
		}
		if !slices.Equal(want, g.NeighborsView(v)) {
			t.Fatalf("neighbor view of %v diverged", v)
		}
		for _, u := range want {
			if !g.HasEdge(v, u) || !g.HasEdge(u, v) {
				t.Fatalf("edge (%v,%v) missing", v, u)
			}
		}
	}
	if len(nodes) > 0 && g.Connected() != (len(ref.BFSFrom(nodes[0], nil)) == len(nodes)) {
		t.Fatalf("Connected() = %v, reference disagrees", g.Connected())
	}
}

// rowsOf returns g's rows as FromRows input, in descending slot order (any
// order must do).
func rowsOf(g *G) []NodeAdj {
	rows := make([]NodeAdj, 0, len(g.nodes))
	for i := len(g.nodes) - 1; i >= 0; i-- {
		rows = append(rows, NodeAdj{Node: g.nodes[i], Adj: g.adj[i]})
	}
	return rows
}
