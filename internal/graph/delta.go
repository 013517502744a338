package graph

import (
	"fmt"
	"slices"

	"repro/internal/ident"
)

// NodeAdj is one node's full replacement adjacency for ApplyDelta: the
// complete, strictly ascending neighbor set the node has after a change.
type NodeAdj struct {
	Node ident.NodeID
	Adj  []ident.NodeID
}

// ApplyDelta builds the graph that differs from prev only at the given
// nodes: each updates entry replaces that node's whole adjacency, and the
// mirror halves of every gained or lost edge are patched into the affected
// neighbors. This is the incremental sibling of FromEdgesShared for the
// mobile-world rebuild where only a fraction of nodes moved: instead of
// re-deriving every adjacency, only the movers' rows (supplied by the
// caller's vicinity re-scan) and the rows they touch are rewritten; all
// other rows — the overwhelming majority — are shared with prev.
//
// Preconditions (the spatial index guarantees them; violations panic):
// every updates Node exists in prev and appears at most once, and every
// Adj is strictly ascending, self-free, and names only nodes of prev.
// The node set is unchanged by construction — membership churn must go
// through a full rebuild.
//
// Sharing semantics: the result shares prev's roster (as FromEdgesShared
// does) and every unpatched adjacency slice. Both graphs are marked
// copy-on-write: the first in-place mutation of either (AddEdge,
// RemoveEdge, RemoveNode) privatizes its adjacency storage first, so the
// sharing is invisible to callers — reads stay zero-copy (NeighborsView
// over a patched CSR is exactly as valid as over a bulk-built one), and
// the generation contract is preserved because ApplyDelta returns a fresh
// graph (new pointer, generation zero) rather than mutating prev.
func ApplyDelta(prev *G, updates []NodeAdj) *G {
	// The updated-node set, ascending, for the mirror-patch membership
	// tests (an edge between two updated nodes is fully described by their
	// own rows and must not be double-patched or double-counted).
	upd := make([]ident.NodeID, len(updates))
	for i, u := range updates {
		upd[i] = u.Node
	}
	slices.Sort(upd)
	for i := 1; i < len(upd); i++ {
		if upd[i] == upd[i-1] {
			panic(fmt.Sprintf("graph: ApplyDelta: duplicate update for %v", upd[i]))
		}
	}
	isUpd := func(v ident.NodeID) bool {
		_, ok := slices.BinarySearch(upd, v)
		return ok
	}

	g := &G{
		idx:   prev.idx,
		nodes: prev.nodes,
		adj:   make([][]ident.NodeID, len(prev.adj)),
		edges: prev.edges,
	}
	prev.sharedIdx = true
	g.sharedIdx = true
	copy(g.adj, prev.adj)
	// Adjacency storage is shared slice-by-slice from here on; flag both
	// sides so any later in-place mutation privatizes first.
	g.cowAdj, prev.cowAdj = true, true
	if prev.sortedOK {
		// The ascending roster is identical (same node set); share it too.
		// unshareIdx detaches it before any membership mutation.
		g.sorted, g.sortedOK = prev.sorted, true
	}

	// One arena holds every updated row (the patched mirror rows are
	// allocated per row below — there are few of them and their sizes are
	// only known after the diff).
	total := 0
	for i := range updates {
		total += len(updates[i].Adj)
	}
	arena := make([]ident.NodeID, 0, total)

	type patch struct {
		slot int32
		nb   ident.NodeID
		add  bool
	}
	var patches []patch

	for i := range updates {
		u := updates[i].Node
		na := updates[i].Adj
		iu, ok := prev.idx[u]
		if !ok {
			panic(fmt.Sprintf("graph: ApplyDelta: unknown node %v", u))
		}
		for k := range na {
			if na[k] == u {
				panic(fmt.Sprintf("graph: ApplyDelta: self-loop on %v", u))
			}
			if k > 0 && na[k-1] >= na[k] {
				panic(fmt.Sprintf("graph: ApplyDelta: adjacency of %v not strictly ascending", u))
			}
			if _, ok := prev.idx[na[k]]; !ok {
				panic(fmt.Sprintf("graph: ApplyDelta: adjacency of %v names unknown node %v", u, na[k]))
			}
		}
		// Diff the old and new rows; mirror the changes into rows that are
		// not themselves updated.
		old := prev.adj[iu]
		oi, ni := 0, 0
		for oi < len(old) || ni < len(na) {
			switch {
			case ni >= len(na) || (oi < len(old) && old[oi] < na[ni]):
				v := old[oi]
				oi++
				if !isUpd(v) {
					patches = append(patches, patch{slot: prev.idx[v], nb: u, add: false})
					g.edges--
				} else if u < v {
					g.edges--
				}
			case oi >= len(old) || na[ni] < old[oi]:
				v := na[ni]
				ni++
				if !isUpd(v) {
					patches = append(patches, patch{slot: prev.idx[v], nb: u, add: true})
					g.edges++
				} else if u < v {
					g.edges++
				}
			default:
				oi, ni = oi+1, ni+1
			}
		}
		start := len(arena)
		arena = append(arena, na...)
		g.adj[iu] = arena[start:len(arena):len(arena)]
	}

	// Apply the mirror patches, one fresh row per touched neighbor. Each
	// (slot, nb) pair occurs at most once (updates are unique), so the
	// grouped merge below is a plain sorted-walk.
	slices.SortFunc(patches, func(a, b patch) int {
		switch {
		case a.slot != b.slot:
			return int(a.slot - b.slot)
		case a.nb < b.nb:
			return -1
		case a.nb > b.nb:
			return 1
		default:
			return 0
		}
	})
	for lo := 0; lo < len(patches); {
		hi := lo
		for hi < len(patches) && patches[hi].slot == patches[lo].slot {
			hi++
		}
		slot := patches[lo].slot
		old := prev.adj[slot]
		row := make([]ident.NodeID, 0, len(old)+hi-lo)
		pi := lo
		for oi := 0; oi < len(old) || pi < hi; {
			switch {
			case pi >= hi || (oi < len(old) && old[oi] < patches[pi].nb):
				row = append(row, old[oi])
				oi++
			case oi >= len(old) || patches[pi].nb < old[oi]:
				if !patches[pi].add {
					panic(fmt.Sprintf("graph: ApplyDelta: removing absent edge %v-%v",
						prev.nodes[slot], patches[pi].nb))
				}
				row = append(row, patches[pi].nb)
				pi++
			default: // same ID: a removal drops it, an addition is a dup
				if patches[pi].add {
					panic(fmt.Sprintf("graph: ApplyDelta: adding present edge %v-%v",
						prev.nodes[slot], patches[pi].nb))
				}
				oi++
				pi++
			}
		}
		g.adj[slot] = row
		lo = hi
	}
	return g
}

// unshareAdj privatizes the adjacency storage of a graph that shares rows
// (ApplyDelta) or rows and header (identity Restrict) with another before
// the first in-place mutation: every row is copied into one fresh arena,
// with caps pinned so later growth reallocates privately, under a fresh
// header — the old one may be a sibling's and is left as it was.
func (g *G) unshareAdj() {
	if !g.cowAdj {
		return
	}
	total := 0
	for _, s := range g.adj {
		total += len(s)
	}
	arena := make([]ident.NodeID, 0, total)
	adj := make([][]ident.NodeID, len(g.adj))
	for i, s := range g.adj {
		start := len(arena)
		arena = append(arena, s...)
		adj[i] = arena[start:len(arena):len(arena)]
	}
	g.adj = adj
	g.cowAdj = false
}
