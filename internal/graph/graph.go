// Package graph provides the engine's topology: a CSR adjacency store (G)
// that the vicinity index rebuilds or patches every tick and the engine,
// tracker and shard boundary read by node ID (NeighborsView, or Row where
// a cache must prove a row unchanged) or by slot (NeighborsAt); the
// specification's graph (Ref), where the induced
// distances d_X(u,v) behind ΠS, ΠM and ΠT are computed and the one graph
// that is edited; and generators for the topologies used by the
// experiments.
//
// A G is a value: FromRows, ApplyDelta, Restrict and FromRef build one,
// and nothing edits it afterwards, so a topology change is a new graph
// and graph identity is the pointer. Storage is CSR: a node index (a
// paged ident.Table, so a lookup is two loads) plus one ascending neighbor
// row per node, in one of two forms read through row(i). A bulk-built
// graph (FromRows — the spatial index's per-tick rebuild — FromRef, a
// partial Restrict) is packed: n+1 offsets over one arena, no per-row
// header. An ApplyDelta child is unpacked: one slice header per row, its
// untouched rows aliasing its parent's storage. Either way neighbor
// iteration is a slice scan in ascending order, and observers diff
// neighborhoods with a flat slice compare (NeighborsView).
package graph

import (
	"fmt"
	"slices"

	"repro/internal/ident"
)

// G is an undirected graph over NodeIDs. The zero value is an empty graph.
// Directed (asymmetric) links are modeled at the radio layer; the
// specification predicates all use the symmetric graph.
type G struct {
	idx   *ident.Table[int32] // node → slot; nil in the zero value
	nodes []ident.NodeID      // slot → node (insertion order)

	// Slot → neighbors, ascending; read through row(i). Packed (off != nil,
	// adj == nil): row i is arena[off[i]:off[i+1]], written only by the
	// FromRows that builds it, which may have taken the storage over from a
	// retired graph. Unpacked (off == nil, an ApplyDelta child): row i is
	// adj[i]. The node index and roster are shared between graphs built
	// over the same roster (FromRows, ApplyDelta, identity Restrict): no
	// graph writes them after it is built.
	off   []uint32
	arena []ident.NodeID
	adj   [][]ident.NodeID

	// cowAdj marks the adjacency storage as read by another graph — an
	// ApplyDelta child aliases its packed parent's arena, an identity
	// Restrict sibling all of it — so that no FromRows successor takes it.
	cowAdj bool

	// retired is Retire's promise; hdrShared marks the header adj itself as
	// read by an identity-Restrict sibling (both sides, never cleared). An
	// ApplyDelta child takes the adj of a retired, unshared parent, a
	// FromRows successor the off and arena.
	retired, hdrShared bool

	// era is the row era (see Row): FromRows starts one past prev's, since
	// it may rewrite the storage it takes over; ApplyDelta and an identity
	// Restrict keep their parent's, since they never rewrite a row.
	era uint64

	edges int
}

// Row is a receiver row as G.Row serves it: a read-only view of a graph's
// storage, stamped with the graph's row era. FromRows starts a new era,
// and may rewrite the storage of the graph it replaces (it takes a retired
// graph's arena); ApplyDelta stays in the era and gives every row it
// changes fresh storage. So the same window served in one era is the same
// receiver set, and Same is the only comparison a cache may act on.
type Row struct {
	ids []ident.NodeID
	era uint64
}

// IDs returns the receivers, ascending: read-only, valid while the graph
// that served them keeps its rows.
func (r Row) IDs() []ident.NodeID { return r.ids }

// Same reports whether r and o are provably the same receiver set: both
// empty, or the same storage window (backing and length) served within
// one row era. The zero Row is empty.
func (r Row) Same(o Row) bool {
	if len(r.ids) != len(o.ids) {
		return false
	}
	return len(r.ids) == 0 || (r.era == o.era && &r.ids[0] == &o.ids[0])
}

// FromRows bulk-builds a packed graph from one finished row per node: the
// full-rebuild sibling of ApplyDelta, fed by the same vicinity scan. rows
// holds exactly one entry per node of nodes, in any order, each Adj
// strictly ascending, self-free and naming only nodes of nodes (violations
// panic); that v is in u's row iff u is in v's is the caller's symmetric
// link predicate's to guarantee, and is not re-checked. The rows are
// copied, not adopted. When prev was built over exactly this node
// sequence (a mobile world's rebuild with unchanged membership), the
// result shares its node index and roster instead of rebuilding them.
// Over another node sequence the index starts as a copy of prev's, whose
// pages already have about the right sizes.
//
// When prev was retired (Retire), is packed and shares its storage with
// nobody — no identity-Restrict sibling, no ApplyDelta child (cowAdj
// covers both) — the result takes prev's offsets and arena, grown the way
// append grows, and rewrites them; prev is left without rows. rows must
// then not alias prev's storage: a retired graph is not read again.
func FromRows(prev *G, nodes []ident.NodeID, rows []NodeAdj) *G {
	g := &G{}
	var off []uint32
	var arena []ident.NodeID
	if prev != nil {
		g.era = prev.era + 1
	}
	if prev != nil && prev.retired && prev.off != nil && !prev.cowAdj {
		off, arena = prev.off[:0], prev.arena[:0]
		prev.off, prev.arena = nil, nil // handed on: prev is without rows from here
	}
	if prev != nil && slices.Equal(prev.nodes, nodes) {
		g.idx, g.nodes = prev.idx, prev.nodes
	} else {
		g.idx, g.nodes = new(ident.Table[int32]), make([]ident.NodeID, 0, len(nodes))
		if prev != nil && prev.idx != nil {
			g.idx = prev.idx.Clone()
		}
		for _, v := range nodes {
			g.addSlot(v)
		}
		if prev != nil {
			g.dropStale(prev.nodes)
		}
	}
	n := len(g.nodes)
	if len(rows) != n {
		panic(fmt.Sprintf("graph: FromRows: %d rows for %d nodes", len(rows), n))
	}
	// off[i+1] holds len(row i)+1 until the prefix sum, so that zero means
	// "no row yet": n rows, none unknown, none repeated — none missing.
	off = slices.Grow(off, n+1)[:n+1]
	clear(off)
	for _, r := range rows {
		i, ok := g.idx.Get(r.Node)
		if !ok {
			panic(fmt.Sprintf("graph: FromRows: unknown node %v", r.Node))
		}
		if off[i+1] != 0 {
			panic(fmt.Sprintf("graph: FromRows: duplicate row for %v", r.Node))
		}
		off[i+1] = uint32(len(r.Adj)) + 1
	}
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + off[i+1] - 1
	}
	arena = slices.Grow(arena, int(off[n]))[:off[n]]
	for _, r := range rows {
		checkRow("FromRows", g.idx, r)
		copy(arena[off[g.IndexOf(r.Node)]:], r.Adj)
	}
	g.off, g.arena, g.edges = off, arena, len(arena)/2
	return g
}

// addSlot gives v a slot in the roster of a graph under bulk construction
// (no adjacency storage yet), if it has none. The index may be a copy of
// another graph's: an entry that names no slot holding v does not count.
func (g *G) addSlot(v ident.NodeID) {
	if i, ok := g.idx.Get(v); !ok || int(i) >= len(g.nodes) || g.nodes[i] != v {
		g.idx.Set(v, int32(len(g.nodes)))
		g.nodes = append(g.nodes, v)
	}
}

// dropStale removes from a copied index the entries of those of nodes
// that addSlot gave no slot.
func (g *G) dropStale(nodes []ident.NodeID) {
	for _, v := range nodes {
		if i, _ := g.idx.Get(v); int(i) >= len(g.nodes) || g.nodes[i] != v {
			g.idx.Delete(v)
		}
	}
}

// row returns slot i's neighbors, ascending, in either storage form. A
// packed row's cap is pinned to its segment, so that nothing appended to
// it can reach the next row.
func (g *G) row(i int32) []ident.NodeID {
	if g.off != nil {
		lo, hi := g.off[i], g.off[i+1]
		return g.arena[lo:hi:hi]
	}
	return g.adj[i]
}

// HasNode reports whether v is in the graph.
func (g *G) HasNode(v ident.NodeID) bool { return g.idx.Has(v) }

// HasEdge reports whether the undirected edge (u,v) is present.
func (g *G) HasEdge(u, v ident.NodeID) bool {
	i, ok := g.idx.Get(u)
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(g.row(i), v)
	return found
}

// Nodes returns all nodes in ascending order (a fresh copy).
func (g *G) Nodes() []ident.NodeID {
	return g.AppendNodes(make([]ident.NodeID, 0, len(g.nodes)))
}

// AppendNodes appends all nodes in ascending order (the node index's own
// order) to buf and returns the extended slice — the allocation-free
// variant of Nodes for callers that can recycle a buffer (metrics).
func (g *G) AppendNodes(buf []ident.NodeID) []ident.NodeID {
	for v := range g.idx.All() {
		buf = append(buf, v)
	}
	return buf
}

// NumNodes returns the node count.
func (g *G) NumNodes() int { return len(g.nodes) }

// NumEdges returns the undirected edge count.
func (g *G) NumEdges() int { return g.edges }

// IndexOf returns v's dense internal index, in [0, NumNodes), or -1 when
// v is not in the graph. Indices are fixed for the lifetime of one graph
// value (a rebuilt graph may renumber), so callers may use them for
// graph-lifetime scratch arrays but must not carry them to another graph.
func (g *G) IndexOf(v ident.NodeID) int32 {
	if i := g.idx.Ref(v); i != nil {
		return *i
	}
	return -1
}

// Row returns v's neighbors as a Row stamped with g's era; the zero Row
// when v is not in the graph.
func (g *G) Row(v ident.NodeID) Row {
	i, ok := g.idx.Get(v)
	if !ok {
		return Row{}
	}
	return Row{ids: g.row(i), era: g.era}
}

// NeighborsAt is NeighborsView by internal index (see IndexOf): the
// map-free adjacency access for index-based scans. i must be a valid
// index for this graph.
func (g *G) NeighborsAt(i int32) []ident.NodeID { return g.row(i) }

// Neighbors returns v's neighbors in ascending order (a fresh copy).
func (g *G) Neighbors(v ident.NodeID) []ident.NodeID {
	i, ok := g.idx.Get(v)
	if !ok {
		return nil
	}
	return slices.Clone(g.row(i))
}

// NeighborsView returns v's neighbors in ascending order as a view of the
// graph's internal storage: zero-copy, read-only, valid as long as the
// graph keeps its rows (see Retire). This is the flat-compare path
// incremental observers diff neighborhoods with.
func (g *G) NeighborsView(v ident.NodeID) []ident.NodeID {
	i, ok := g.idx.Get(v)
	if !ok {
		return nil
	}
	return g.row(i)
}

// Connected reports whether the whole graph is connected: one BFS over
// slots from slot 0.
func (g *G) Connected() bool {
	n := len(g.nodes)
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	seen[0] = true
	queue := append(make([]int32, 0, n), 0)
	for qi := 0; qi < len(queue); qi++ {
		for _, u := range g.row(queue[qi]) {
			if j := g.IndexOf(u); !seen[j] {
				seen[j] = true
				queue = append(queue, j)
			}
		}
	}
	return len(queue) == n
}

// Equal reports whether two graphs have identical node and edge sets.
func (g *G) Equal(o *G) bool {
	g.mustHaveRows("Equal")
	o.mustHaveRows("Equal")
	if len(g.nodes) != len(o.nodes) || g.edges != o.edges {
		return false
	}
	for i, v := range g.nodes {
		j, ok := o.idx.Get(v)
		if !ok || !slices.Equal(g.row(int32(i)), o.row(j)) {
			return false
		}
	}
	return true
}

// String renders a compact description.
func (g *G) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.NumNodes(), g.NumEdges())
}

// Restrict returns the subgraph induced by the nodes keep accepts (keep is
// called once per node). When it accepts every node the result is a
// sibling at the cost of one G: it shares g's node index, roster and
// adjacency storage in whichever form g has it, and keeps reading them
// after g is retired, since the flags set here stop g's successor from
// taking them (cowAdj, hdrShared). Like ApplyDelta(prev, …) this writes
// flags on its receiver, so Restrict must be called from a sequential
// phase, never beside concurrent readers of g. Otherwise the result is a
// copy in one pass, packed.
func (g *G) Restrict(keep func(ident.NodeID) bool) *G {
	g.mustHaveRows("Restrict")
	cut := 0 // first rejected slot
	for cut < len(g.nodes) && keep(g.nodes[cut]) {
		cut++
	}
	if cut == len(g.nodes) {
		g.cowAdj, g.hdrShared = true, true
		return &G{idx: g.idx, nodes: g.nodes, off: g.off, arena: g.arena, adj: g.adj,
			cowAdj: true, hdrShared: true, era: g.era, edges: g.edges}
	}
	out := &G{idx: g.idx.Clone()}
	slots := make([]int32, 0, len(g.nodes)-1) // out slot → g slot
	total := 0
	for i, v := range g.nodes {
		if i < cut || (i > cut && keep(v)) {
			out.addSlot(v)
			slots = append(slots, int32(i))
			total += len(g.row(int32(i)))
		}
	}
	out.dropStale(g.nodes)
	out.off = make([]uint32, len(slots)+1)
	out.arena = make([]ident.NodeID, 0, total)
	for oi, i := range slots {
		for _, u := range g.row(i) {
			if out.idx.Has(u) {
				out.arena = append(out.arena, u)
			}
		}
		out.off[oi+1] = uint32(len(out.arena))
	}
	out.edges = len(out.arena) / 2
	return out
}

// All reports whether keep accepts every node of g, i.e. whether
// Restrict(keep) would be the identity.
func (g *G) All(keep func(ident.NodeID) bool) bool {
	return !slices.ContainsFunc(g.nodes, func(v ident.NodeID) bool { return !keep(v) })
}
