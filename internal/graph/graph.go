// Package graph provides the engine's topology: a CSR adjacency store (G)
// that the vicinity index rebuilds or patches every tick and the engine,
// tracker and shard boundary read by node ID (NeighborsView) or by slot
// (NeighborsAt); the specification's graph (Ref), where the induced
// distances d_X(u,v) behind ΠS, ΠM and ΠT are computed; and generators
// for the topologies used by the experiments.
//
// Storage is CSR: a node index (a paged ident.Table, so a lookup is two
// loads) plus one ascending neighbor row per
// node, in one of two forms read through row(i). A bulk-built graph
// (FromRows — the spatial index's per-tick rebuild — Clone, a partial
// Restrict) is packed: n+1 offsets over one arena, no per-row
// header. The first in-place mutation (AddEdge/RemoveEdge, the
// experiments' link cuts) unpacks it into one slice header per row, still
// aliasing the arena, and edits those in place, a row that must grow
// taking a private copy; an ApplyDelta child is unpacked from birth, its
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
	// retired graph. Unpacked (off == nil): row i is adj[i]; unshareAdj is
	// the only way from the first form to the second.
	off   []uint32
	arena []ident.NodeID
	adj   [][]ident.NodeID

	// sharedIdx marks idx/nodes as shared with another graph built over
	// the same roster (FromRows, ApplyDelta, identity Restrict); any node
	// mutation first takes a private copy.
	sharedIdx bool

	// cowAdj marks the adjacency rows (ApplyDelta) or the whole adjacency
	// storage (identity Restrict) as shared with another graph; any
	// mutation first privatizes them (unshareAdj in delta.go).
	cowAdj bool

	// retired is Retire's promise; hdrShared marks the header adj itself as
	// read by an identity-Restrict sibling (both sides, never cleared). An
	// ApplyDelta child takes the adj of a retired, unshared parent, a
	// FromRows successor the off and arena.
	retired, hdrShared bool

	edges int
	gen   uint64
}

// New returns an empty graph.
func New() *G { return &G{} }

// FromRows bulk-builds a packed graph from one finished row per node: the
// full-rebuild sibling of ApplyDelta, fed by the same vicinity scan. rows
// holds exactly one entry per node of nodes, in any order, each Adj
// strictly ascending, self-free and naming only nodes of nodes (violations
// panic); that v is in u's row iff u is in v's is the caller's symmetric
// link predicate's to guarantee, and is not re-checked. The rows are
// copied, not adopted. When prev was built over exactly this node
// sequence (a mobile world's rebuild with unchanged membership), the
// result shares its node index copy-on-write instead of rebuilding it:
// either graph takes a private copy before a later node mutation. Over
// another node sequence the index starts as a copy of prev's, whose pages
// already have about the right sizes.
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
	if prev != nil && prev.retired && prev.off != nil && !prev.cowAdj {
		off, arena = prev.off[:0], prev.arena[:0]
		prev.off, prev.arena = nil, nil // handed on: prev is without rows from here
	}
	if prev != nil && slices.Equal(prev.nodes, nodes) {
		prev.sharedIdx, g.sharedIdx = true, true
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

// ensure returns v's slot, creating it if needed (no generation bump —
// callers bump once per mutating API call).
func (g *G) ensure(v ident.NodeID) int32 {
	if i, ok := g.idx.Get(v); ok {
		return i
	}
	g.unshareIdx()
	g.unshareAdj()
	if g.idx == nil {
		g.idx = new(ident.Table[int32])
	}
	i := int32(len(g.nodes))
	g.idx.Set(v, i)
	g.nodes = append(g.nodes, v)
	g.adj = append(g.adj, nil)
	return i
}

// unshareIdx takes a private copy of a roster shared via FromRows,
// ApplyDelta or Restrict before the first node mutation.
func (g *G) unshareIdx() {
	if !g.sharedIdx {
		return
	}
	g.idx = g.idx.Clone()
	g.nodes = slices.Clone(g.nodes)
	g.sharedIdx = false
}

// Clone returns a deep copy of the graph, packed.
func (g *G) Clone() *G {
	g.mustHaveRows("Clone")
	out := &G{
		idx:   g.idx.Clone(),
		nodes: slices.Clone(g.nodes),
		off:   make([]uint32, len(g.nodes)+1),
		arena: make([]ident.NodeID, 0, 2*g.edges),
		edges: g.edges,
	}
	for i := range g.nodes {
		out.arena = append(out.arena, g.row(int32(i))...)
		out.off[i+1] = uint32(len(out.arena))
	}
	return out
}

// Generation returns a counter that increases on every mutation of the
// graph. Consumers that cache derived structures (e.g. the snapshot
// builder) key their caches on (pointer, generation) to detect in-place
// mutations such as the experiments' link cuts. Every mutating call
// (AddNode, RemoveNode, AddEdge, RemoveEdge) bumps it at least once,
// whether or not it changed the edge set; read-only calls never do.
func (g *G) Generation() uint64 { return g.gen }

// AddNode ensures v exists (possibly isolated).
func (g *G) AddNode(v ident.NodeID) {
	g.gen++
	g.ensure(v)
}

// RemoveNode deletes v and all its incident edges.
func (g *G) RemoveNode(v ident.NodeID) {
	g.gen++
	i, ok := g.idx.Get(v)
	if !ok {
		return
	}
	g.unshareIdx()
	g.unshareAdj()
	for _, u := range g.adj[i] {
		g.dropHalf(g.IndexOf(u), v)
		g.edges--
	}
	last := int32(len(g.nodes) - 1)
	if i != last {
		moved := g.nodes[last]
		g.nodes[i] = moved
		g.adj[i] = g.adj[last]
		g.idx.Set(moved, i)
	}
	g.nodes = g.nodes[:last]
	g.adj[last] = nil
	g.adj = g.adj[:last]
	g.idx.Delete(v)
}

// dropHalf removes v from slot i's adjacency (which must contain it).
func (g *G) dropHalf(i int32, v ident.NodeID) {
	s := g.adj[i]
	k, _ := slices.BinarySearch(s, v)
	copy(s[k:], s[k+1:])
	g.adj[i] = s[:len(s)-1]
}

// AddEdge inserts the undirected edge (u,v), creating the nodes if needed.
// Self-loops are ignored.
func (g *G) AddEdge(u, v ident.NodeID) {
	if u == v {
		return
	}
	g.gen++
	g.unshareAdj()
	iu := g.ensure(u)
	iv := g.ensure(v)
	if !insertSorted(&g.adj[iu], v) {
		return
	}
	insertSorted(&g.adj[iv], u)
	g.edges++
}

// insertSorted inserts v into the ascending slice at *s, reporting
// whether it was absent.
func insertSorted(s *[]ident.NodeID, v ident.NodeID) bool {
	k, found := slices.BinarySearch(*s, v)
	if found {
		return false
	}
	*s = slices.Insert(*s, k, v)
	return true
}

// RemoveEdge deletes the undirected edge (u,v) if present.
func (g *G) RemoveEdge(u, v ident.NodeID) {
	g.gen++
	iu, ok := g.idx.Get(u)
	if !ok {
		return
	}
	iv, ok := g.idx.Get(v)
	if !ok {
		return
	}
	if _, found := slices.BinarySearch(g.row(iu), v); !found {
		return
	}
	g.unshareAdj()
	g.dropHalf(iu, v)
	g.dropHalf(iv, u)
	g.edges--
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
// v is not in the graph. Indices are stable for the lifetime of one graph
// value (node removal recycles them, and a rebuilt graph renumbers), so
// callers may use them for graph-lifetime scratch arrays but must not
// carry them across a Generation change or to another graph.
func (g *G) IndexOf(v ident.NodeID) int32 {
	if i := g.idx.Ref(v); i != nil {
		return *i
	}
	return -1
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
// graph's internal storage: zero-copy, read-only, valid until the next
// mutation of the graph. This is the flat-compare path incremental
// observers diff neighborhoods with.
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
// copy-on-write sibling at the cost of one G: it shares g's node index,
// roster and adjacency storage in whichever form g has it, and either
// graph privatizes what it is about to write (unshareIdx, unshareAdj)
// before any later mutation. Like ApplyDelta(prev, …) this sets flags on
// its receiver (one makes the next ApplyDelta copy g's header even if g is
// retired), so Restrict must be called from a sequential phase, never
// beside concurrent readers of g. Otherwise the result is a deep copy in
// one pass, packed.
func (g *G) Restrict(keep func(ident.NodeID) bool) *G {
	g.mustHaveRows("Restrict")
	cut := 0 // first rejected slot
	for cut < len(g.nodes) && keep(g.nodes[cut]) {
		cut++
	}
	if cut == len(g.nodes) {
		g.sharedIdx, g.cowAdj, g.hdrShared = true, true, true
		return &G{idx: g.idx, nodes: g.nodes, off: g.off, arena: g.arena, adj: g.adj,
			sharedIdx: true, cowAdj: true, hdrShared: true, edges: g.edges}
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
