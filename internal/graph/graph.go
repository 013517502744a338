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
// and graph identity is the pointer. Storage is CSR: a roster (a node
// index, a paged ident.Table, so a lookup is two loads, and the node
// list) plus one ascending neighbor row per node, held in a row header of
// one slice per slot. A roster belongs to its lineage: the graphs over
// one node sequence share it, a sharer that keeps its rows beside a
// successor marks it held, and a successor over a new node sequence takes
// over an unheld one from a predecessor that handed on its rows. A bulk build
// (FromRows — the spatial index's per-tick rebuild — FromRef, a partial
// Restrict) lays every row out in one arena; an ApplyDelta child cuts the
// rows it changes from two arenas of its step, its updated rows from one
// and its mirror-patched rows from the other, and leaves its untouched
// rows in its parent's storage. An arena lives while any of its rows is
// held by a live graph, a held snapshot or a receiver cache's Row. Either
// way neighbor iteration is a slice scan in ascending order, and
// observers diff neighborhoods with a flat slice compare (NeighborsView).
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
	// The roster: node → slot (nil in the zero value) and slot → node, in
	// insertion order. Graphs over one node sequence (FromRows, ApplyDelta)
	// share it and its held mark, set once a sharer keeps its rows beside a
	// successor; until then a FromRows successor over a new node sequence
	// that took its predecessor's rows patches it in place (reslot).
	idx   *ident.Table[int32]
	nodes []ident.NodeID
	held  *bool

	// Slot → neighbors, ascending: adj[i] is a window of storage no graph
	// writes again, its cap clamped to its length so that an append cannot
	// reach the next row. A bulk build lays the rows out in arena, in slot
	// order; an ApplyDelta child cuts its changed rows from two arenas of
	// its step that no graph rewrites, so its arena stays nil.
	adj   [][]ident.NodeID
	arena []ident.NodeID

	// ApplyDelta's scratch (the updated-node set, the mirror patches),
	// handed on with the row header.
	upd     []ident.NodeID
	patches []patch

	// retired is Retire's promise; shared, never cleared, marks g as read
	// by an ApplyDelta child or held through an identity Restrict.
	retired, shared bool

	// era is the row era (see Row): FromRows starts one past prev's, since
	// it may rewrite the storage it takes over; ApplyDelta keeps its
	// parent's, since it never rewrites a row.
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

// FromRows bulk-builds a graph from one finished row per node: the
// full-rebuild sibling of ApplyDelta, fed by the same vicinity scan. rows
// holds exactly one entry per node of nodes, in any order, each Adj
// strictly ascending, self-free and naming only nodes of nodes (violations
// panic); that v is in u's row iff u is in v's is the caller's symmetric
// link predicate's to guarantee, and is not re-checked. The rows are
// copied into one arena, not adopted. When prev was built over exactly
// this node sequence (a mobile world's rebuild with unchanged
// membership), the result shares its roster instead of rebuilding it.
// Over another node sequence the roster is prev's patched (reslot): taken
// over in place when prev handed on its rows and its roster is not held,
// else a copy, whose index pages already have about the right sizes.
//
// When prev was retired (Retire), is not shared and still has its rows,
// the result takes prev's row header, and its arena if it has one, grown
// the way append grows, and rewrites them; prev is left without rows, and
// rows must not alias its storage.
func FromRows(prev *G, nodes []ident.NodeID, rows []NodeAdj) *G {
	g := &G{}
	took := false
	if prev != nil {
		g.era = prev.era + 1
		if took = prev.retired && !prev.shared && prev.adj != nil; took {
			g.adj, g.arena = prev.adj[:0], prev.arena[:0]
			prev.adj, prev.arena = nil, nil // handed on: prev is without rows from here
		}
	}
	switch {
	case prev != nil && slices.Equal(prev.nodes, nodes):
		g.idx, g.nodes, g.held = prev.idx, prev.nodes, prev.held
		if !took {
			prev.hold()
		}
	case took && !*prev.held:
		g.idx, g.nodes, g.held = prev.idx, prev.nodes, prev.held
		g.reslot(prev.nodes, nodes)
	default:
		g.idx, g.nodes, g.held = new(ident.Table[int32]), make([]ident.NodeID, 0, len(nodes)), new(bool)
		var old []ident.NodeID
		if prev != nil && prev.idx != nil {
			g.idx, old = prev.idx.Clone(), prev.nodes
		}
		g.reslot(old, nodes)
	}
	n := len(g.nodes)
	if len(rows) != n {
		panic(fmt.Sprintf("graph: FromRows: %d rows for %d nodes", len(rows), n))
	}
	// adj[i] holds the caller's row until it is copied, non-nil even when
	// empty, so that nil means "no row yet": n rows, none unknown, none
	// repeated — none missing.
	adj := slices.Grow(g.adj, n)[:n]
	clear(adj)
	total := 0
	for _, r := range rows {
		i, ok := g.idx.Get(r.Node)
		if !ok {
			panic(fmt.Sprintf("graph: FromRows: unknown node %v", r.Node))
		}
		if adj[i] != nil {
			panic(fmt.Sprintf("graph: FromRows: duplicate row for %v", r.Node))
		}
		checkRow("FromRows", g.idx, r)
		adj[i] = r.Adj
		if adj[i] == nil {
			adj[i] = []ident.NodeID{}
		}
		total += len(r.Adj)
	}
	arena := slices.Grow(g.arena, total)
	for i, row := range adj {
		start := len(arena)
		arena = append(arena, row...)
		adj[i] = arena[start:len(arena):len(arena)]
	}
	g.adj, g.arena, g.edges = adj, arena, total/2
	return g
}

// reslot turns the roster old lists into one that lists nodes, in order,
// a repeat keeping its first slot: g.idx holds old's entries (taken over
// or copied), and g.nodes is storage for the result (old's, fresh, or
// nodes' own: a slot is written only after nodes was read up to it). It
// marks the IDs that stay or come, deletes the ones that left and gives
// the marked ones their slots.
func (g *G) reslot(old, nodes []ident.NodeID) {
	for _, v := range nodes {
		g.idx.Set(v, -1)
	}
	for _, v := range old {
		if i, _ := g.idx.Get(v); i >= 0 {
			g.idx.Delete(v)
		}
	}
	g.nodes = g.nodes[:0]
	for _, v := range nodes {
		if i := g.idx.Ref(v); *i < 0 {
			*i = int32(len(g.nodes))
			g.nodes = append(g.nodes, v)
		}
	}
}

// hold marks g's roster as read by g beside a successor, so that no later
// successor takes it over.
func (g *G) hold() {
	if g.held != nil {
		*g.held = true
	}
}

// HasNode reports whether v is in the graph.
func (g *G) HasNode(v ident.NodeID) bool { return g.idx.Has(v) }

// HasEdge reports whether the undirected edge (u,v) is present.
func (g *G) HasEdge(u, v ident.NodeID) bool {
	i, ok := g.idx.Get(u)
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(g.adj[i], v)
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
	return Row{ids: g.adj[i], era: g.era}
}

// NeighborsAt is NeighborsView by internal index (see IndexOf): the
// map-free adjacency access for index-based scans. i must be a valid
// index for this graph.
func (g *G) NeighborsAt(i int32) []ident.NodeID { return g.adj[i] }

// Neighbors returns v's neighbors in ascending order (a fresh copy).
func (g *G) Neighbors(v ident.NodeID) []ident.NodeID {
	i, ok := g.idx.Get(v)
	if !ok {
		return nil
	}
	return slices.Clone(g.adj[i])
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
	return g.adj[i]
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
		for _, u := range g.adj[queue[qi]] {
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
		if !ok || !slices.Equal(g.adj[i], o.adj[j]) {
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
// called once per node). When it accepts every node the result is g
// itself, marked shared so that no successor takes its storage (its rows,
// nor with them its roster): the holder keeps reading it after g is
// retired. Like ApplyDelta(prev, …) this writes a flag on its receiver,
// so Restrict must be called from a sequential phase, never beside
// concurrent readers of g. Otherwise the result is a copy in one pass, in
// one arena, over a copy of g's roster.
func (g *G) Restrict(keep func(ident.NodeID) bool) *G {
	g.mustHaveRows("Restrict")
	cut := 0 // first rejected slot
	for cut < len(g.nodes) && keep(g.nodes[cut]) {
		cut++
	}
	if cut == len(g.nodes) {
		g.shared = true
		return g
	}
	out := &G{idx: g.idx.Clone(), nodes: make([]ident.NodeID, 0, len(g.nodes)-1), held: new(bool)}
	total := 0
	for i, v := range g.nodes {
		if i < cut || (i > cut && keep(v)) {
			out.nodes = append(out.nodes, v)
			total += len(g.adj[i])
		}
	}
	out.reslot(g.nodes, out.nodes)
	out.adj = make([][]ident.NodeID, len(out.nodes))
	out.arena = make([]ident.NodeID, 0, total)
	for oi, v := range out.nodes {
		start := len(out.arena)
		for _, u := range g.NeighborsView(v) {
			if out.idx.Has(u) {
				out.arena = append(out.arena, u)
			}
		}
		out.adj[oi] = out.arena[start:len(out.arena):len(out.arena)]
	}
	out.edges = len(out.arena) / 2
	return out
}

// All reports whether keep accepts every node of g, i.e. whether
// Restrict(keep) would be the identity.
func (g *G) All(keep func(ident.NodeID) bool) bool {
	return !slices.ContainsFunc(g.nodes, func(v ident.NodeID) bool { return !keep(v) })
}
