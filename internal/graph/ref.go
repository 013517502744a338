package graph

import (
	"slices"

	"repro/internal/ident"
)

// Infinity is the distance reported between unreachable node pairs
// (d(u,v) = +∞ in the paper).
const Infinity = int(^uint(0) >> 1)

// Ref is the specification's graph: a map of neighbor sets, the shape the
// predicates ΠS, ΠM and ΠT are written against. It is also the one graph
// that is edited: the generators, the experiments' gadgets and
// engine.StaticTopology.Edit build or change a Ref and pack it (FromRef).
// Its induced distances (BFSFrom, InducedDiameter) serve only the metrics
// predicates and the experiments, which read a G through RefOf; the fuzz
// and conformance suites compare a G against a Ref (SameAs). The engine's
// topology is G.
type Ref struct {
	adj map[ident.NodeID]map[ident.NodeID]bool
}

// NewRef returns an empty reference graph.
func NewRef() *Ref {
	return &Ref{adj: make(map[ident.NodeID]map[ident.NodeID]bool)}
}

// RefOf returns the reference graph with g's nodes and edges. An edge
// that only one endpoint's row names comes out symmetric, so that SameAs
// against g reports it.
func RefOf(g *G) *Ref {
	g.mustHaveRows("RefOf")
	r := NewRef()
	for i, v := range g.nodes {
		r.AddNode(v)
		for _, u := range g.adj[i] {
			r.AddEdge(v, u)
		}
	}
	return r
}

// FromRef packs r into a G, slots in ascending node order.
func FromRef(r *Ref) *G {
	nodes := r.Nodes()
	rows := make([]NodeAdj, len(nodes))
	for i, v := range nodes {
		rows[i] = NodeAdj{Node: v, Adj: r.Neighbors(v)}
	}
	return FromRows(nil, nodes, rows)
}

// AddNode ensures v exists.
func (g *Ref) AddNode(v ident.NodeID) {
	if g.adj[v] == nil {
		g.adj[v] = make(map[ident.NodeID]bool)
	}
}

// RemoveNode deletes v and all its incident edges.
func (g *Ref) RemoveNode(v ident.NodeID) {
	for u := range g.adj[v] {
		delete(g.adj[u], v)
	}
	delete(g.adj, v)
}

// AddEdge inserts the undirected edge (u,v); self-loops are ignored.
func (g *Ref) AddEdge(u, v ident.NodeID) {
	if u == v {
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// RemoveEdge deletes the undirected edge (u,v) if present.
func (g *Ref) RemoveEdge(u, v ident.NodeID) {
	if g.adj[u] != nil {
		delete(g.adj[u], v)
	}
	if g.adj[v] != nil {
		delete(g.adj[v], u)
	}
}

// HasNode reports whether v is in the graph.
func (g *Ref) HasNode(v ident.NodeID) bool { _, ok := g.adj[v]; return ok }

// HasEdge reports whether the undirected edge (u,v) is present.
func (g *Ref) HasEdge(u, v ident.NodeID) bool { return g.adj[u][v] }

// NumNodes returns the node count.
func (g *Ref) NumNodes() int { return len(g.adj) }

// NumEdges returns the undirected edge count.
func (g *Ref) NumEdges() int {
	n := 0
	for _, nb := range g.adj {
		n += len(nb)
	}
	return n / 2
}

// Nodes returns all nodes in ascending order.
func (g *Ref) Nodes() []ident.NodeID {
	out := make([]ident.NodeID, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Neighbors returns v's neighbors in ascending order.
func (g *Ref) Neighbors(v ident.NodeID) []ident.NodeID {
	out := make([]ident.NodeID, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// BFSFrom returns the distance from src to every reachable node,
// optionally restricted to the induced subgraph on within.
func (g *Ref) BFSFrom(src ident.NodeID, within map[ident.NodeID]bool) map[ident.NodeID]int {
	dist := make(map[ident.NodeID]int)
	if !g.HasNode(src) || (within != nil && !within[src]) {
		return dist
	}
	dist[src] = 0
	queue := []ident.NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for u := range g.adj[v] {
			if within != nil && !within[u] {
				continue
			}
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// InducedDiameter returns the diameter of the subgraph induced by X
// (Infinity when disconnected, 0 for singletons and the empty set).
func (g *Ref) InducedDiameter(x map[ident.NodeID]bool) int {
	diam := 0
	for v := range x {
		d := g.BFSFrom(v, x)
		if len(d) != len(x) {
			return Infinity
		}
		for _, dv := range d {
			if dv > diam {
				diam = dv
			}
		}
	}
	return diam
}

// SameAs reports whether the reference graph and a CSR graph have
// identical node and edge sets — the oracle comparison.
func (g *Ref) SameAs(o *G) bool {
	if len(g.adj) != o.NumNodes() || g.NumEdges() != o.NumEdges() {
		return false
	}
	for v, nb := range g.adj {
		ov := o.NeighborsView(v)
		if !o.HasNode(v) || len(nb) != len(ov) {
			return false
		}
		for _, u := range ov {
			if !nb[u] {
				return false
			}
		}
	}
	return true
}
