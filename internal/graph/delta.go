package graph

import (
	"fmt"
	"slices"

	"repro/internal/ident"
)

// NodeAdj is one node's full adjacency — a replacement row for ApplyDelta,
// the row itself for FromRows: the complete, strictly ascending neighbor
// set of the node.
type NodeAdj struct {
	Node ident.NodeID
	Adj  []ident.NodeID
}

// checkRow panics unless r.Adj is strictly ascending, self-free and names
// only nodes of idx — the row contract of ApplyDelta and FromRows.
func checkRow(who string, idx *ident.Table[int32], r NodeAdj) {
	for k, v := range r.Adj {
		if v == r.Node {
			panic(fmt.Sprintf("graph: %s: self-loop on %v", who, r.Node))
		}
		if k > 0 && r.Adj[k-1] >= v {
			panic(fmt.Sprintf("graph: %s: adjacency of %v not strictly ascending", who, r.Node))
		}
		if !idx.Has(v) {
			panic(fmt.Sprintf("graph: %s: adjacency of %v names unknown node %v", who, r.Node, v))
		}
	}
}

// ApplyDelta builds the graph that differs from prev only at the given
// nodes: each updates entry replaces that node's whole adjacency, and the
// mirror halves of every gained or lost edge are patched into the affected
// neighbors. This is the incremental sibling of FromRows for the
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
// When changed is non-nil, the nodes whose row content differs between
// prev and the result are appended to *changed, the caller's storage,
// each once: every updated node whose replacement row is not its old row,
// then every mirror-patched neighbor. An update that restates a node's row
// is rewritten but not reported.
//
// Sharing semantics: the result is a new graph (a new pointer) that
// shares prev's roster (as FromRows does) and every unpatched row. It is
// unpacked whatever prev is: one header whose untouched rows alias prev's
// storage, a packed prev's arena included, so a row nobody patched keeps
// its backing pointer from graph to graph (the identity the receiver
// caches key on). Neither graph is edited afterwards, so the sharing is
// invisible to callers.
//
// The header is a copy of prev's and prev stays intact — unless prev was
// retired (Retire), is unpacked and has no identity-Restrict sibling
// reading through its header: then the child takes the header and patches
// it in place, one header per delta lineage instead of one per step, and
// prev is left without rows (the preconditions are checked first). A delta
// never rewrites or recycles row storage, so along one lineage (&row[0],
// len) proves content; only FromRows rewrites storage, taken from a
// retired packed graph, and starts a new row era, which scopes that proof
// to the era (Row).
func ApplyDelta(prev *G, updates []NodeAdj, changed *[]ident.NodeID) *G {
	prev.mustHaveRows("ApplyDelta")
	// The updated-node set, ascending, for the mirror-patch membership
	// tests (an edge between two updated nodes is fully described by their
	// own rows and must not be double-patched or double-counted).
	upd := make([]ident.NodeID, len(updates))
	for i, u := range updates {
		if !prev.idx.Has(u.Node) {
			panic(fmt.Sprintf("graph: ApplyDelta: unknown node %v", u.Node))
		}
		checkRow("ApplyDelta", prev.idx, u)
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

	adj := prev.adj
	if prev.retired && prev.off == nil && !prev.hdrShared {
		prev.adj = nil // handed on: prev is without rows from here
	} else {
		adj = prev.header()
	}
	g := &G{idx: prev.idx, nodes: prev.nodes, adj: adj, era: prev.era, edges: prev.edges}
	// g's rows alias prev's storage from here on: a packed prev's arena
	// must not go to a FromRows successor.
	prev.cowAdj = true

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
		iu := prev.IndexOf(u)
		// Diff the old and new rows; mirror the changes into rows that are
		// not themselves updated. g's header may be prev's own: every slot is
		// read before it is written, updated and mirror slots being disjoint.
		old := g.adj[iu]
		oi, ni, same := 0, 0, true
		for oi < len(old) || ni < len(na) {
			switch {
			case ni >= len(na) || (oi < len(old) && old[oi] < na[ni]):
				v := old[oi]
				oi++
				same = false
				if !isUpd(v) {
					patches = append(patches, patch{slot: prev.IndexOf(v), nb: u, add: false})
					g.edges--
				} else if u < v {
					g.edges--
				}
			case oi >= len(old) || na[ni] < old[oi]:
				v := na[ni]
				ni++
				same = false
				if !isUpd(v) {
					patches = append(patches, patch{slot: prev.IndexOf(v), nb: u, add: true})
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
		if changed != nil && !same {
			*changed = append(*changed, u)
		}
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
		old := g.adj[slot]
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
		if changed != nil {
			*changed = append(*changed, prev.nodes[slot])
		}
		lo = hi
	}
	return g
}

// Retire declares that g's owner will not read g once a child has been
// derived from it, which lets that child take g's storage: an ApplyDelta
// child the row header of an unpacked g, a FromRows successor the offsets
// and arena of a packed one. A no-op on an empty graph, which has neither.
func (g *G) Retire() { g.retired = g.retired || len(g.adj) > 0 || g.off != nil }

// mustHaveRows panics if g's rows went to a child: an identity Restrict
// would otherwise return a silently empty sibling.
func (g *G) mustHaveRows(who string) {
	if g.retired && g.adj == nil && g.off == nil {
		panic("graph: " + who + " on a retired graph whose rows were handed to its ApplyDelta child or FromRows successor")
	}
}

// header returns a fresh row header over g's adjacency storage: one
// slice per slot, aliasing the rows where they are.
func (g *G) header() [][]ident.NodeID {
	adj := make([][]ident.NodeID, len(g.nodes))
	for i := range adj {
		adj[i] = g.row(int32(i))
	}
	return adj
}
