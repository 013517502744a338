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
// shares prev's roster (as FromRows does) and every unpatched row: its
// own row header, its untouched rows where prev has them, so a row nobody
// patched keeps its backing pointer from graph to graph (the identity the
// receiver caches key on). Neither graph is edited afterwards, so the
// sharing is invisible to callers; prev is marked shared, so that no
// FromRows successor takes its storage, and its roster held unless it
// hands its rows on. The rows a step changes are cut from two arenas of
// that step, one for the updated rows and one, sized after the diff, for
// the mirror-patched rows: a few allocations a step, not one a row.
// Neither is the child's arena, which a FromRows successor may rewrite,
// and each stays alive while a live graph, a held snapshot or a receiver
// cache's Row holds any of its rows.
//
// The header is a copy of prev's and prev stays intact — unless prev was
// retired (Retire) and is not shared: then the child takes the header,
// and ApplyDelta's scratch with it, and patches the header in place, one
// header per lineage instead of one per step, and prev is left without
// rows (the preconditions are checked first). A delta never rewrites or
// recycles row storage, so along one lineage (&row[0], len) proves
// content; only FromRows rewrites storage, taken from a retired graph,
// and starts a new row era, which scopes that proof to the era (Row).
func ApplyDelta(prev *G, updates []NodeAdj, changed *[]ident.NodeID) *G {
	prev.mustHaveRows("ApplyDelta")
	handOn := prev.retired && !prev.shared
	var upd []ident.NodeID
	var patches []patch
	if handOn {
		upd, patches = prev.upd[:0], prev.patches[:0]
	}
	// The updated-node set, ascending, for the mirror-patch membership
	// tests (an edge between two updated nodes is fully described by their
	// own rows and must not be double-patched or double-counted).
	for _, u := range updates {
		if !prev.idx.Has(u.Node) {
			panic(fmt.Sprintf("graph: ApplyDelta: unknown node %v", u.Node))
		}
		checkRow("ApplyDelta", prev.idx, u)
		upd = append(upd, u.Node)
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
	if handOn {
		// Handed on: prev is without rows or scratch from here.
		prev.adj, prev.arena, prev.upd, prev.patches = nil, nil, nil, nil
	} else {
		adj = slices.Clone(prev.adj)
		prev.hold()
	}
	prev.shared = true
	g := &G{idx: prev.idx, nodes: prev.nodes, held: prev.held, adj: adj, era: prev.era, edges: prev.edges}

	// One arena holds every updated row, another every patched mirror row;
	// neither is g.arena, which a FromRows successor may rewrite.
	total := 0
	for i := range updates {
		total += len(updates[i].Adj)
	}
	arena := make([]ident.NodeID, 0, total)

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

	// Apply the mirror patches, one fresh row per touched neighbor, cut
	// from the mirror arena. Each (slot, nb) pair occurs at most once
	// (updates are unique), so the grouped merge below is a plain
	// sorted-walk, and a row's length is its old one plus its additions
	// minus its removals.
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
	total = 0
	for i, p := range patches {
		if i == 0 || p.slot != patches[i-1].slot {
			total += len(g.adj[p.slot])
		}
		if p.add {
			total++
		} else {
			total--
		}
	}
	arena = make([]ident.NodeID, 0, max(total, 0))
	for lo := 0; lo < len(patches); {
		hi := lo
		for hi < len(patches) && patches[hi].slot == patches[lo].slot {
			hi++
		}
		slot := patches[lo].slot
		old := g.adj[slot]
		start := len(arena)
		pi := lo
		for oi := 0; oi < len(old) || pi < hi; {
			switch {
			case pi >= hi || (oi < len(old) && old[oi] < patches[pi].nb):
				arena = append(arena, old[oi])
				oi++
			case oi >= len(old) || patches[pi].nb < old[oi]:
				if !patches[pi].add {
					panic(fmt.Sprintf("graph: ApplyDelta: removing absent edge %v-%v",
						prev.nodes[slot], patches[pi].nb))
				}
				arena = append(arena, patches[pi].nb)
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
		g.adj[slot] = arena[start:len(arena):len(arena)]
		if changed != nil {
			*changed = append(*changed, prev.nodes[slot])
		}
		lo = hi
	}
	g.upd, g.patches = upd, patches
	return g
}

// patch is one mirror half of a gained or lost edge: nb added to or
// removed from the row at slot.
type patch struct {
	slot int32
	nb   ident.NodeID
	add  bool
}

// Retire declares that g's owner will not read g once a child has been
// derived from it, which lets that child take g's storage: an ApplyDelta
// child its row header, a FromRows successor its header and arena, and
// over a new node sequence its roster unless held. A no-op on a graph
// without rows, which has nothing to hand on.
func (g *G) Retire() { g.retired = g.retired || len(g.adj) > 0 }

// mustHaveRows panics if g's rows went to a child: a Restrict would
// otherwise return a silently empty graph.
func (g *G) mustHaveRows(who string) {
	if g.retired && g.adj == nil {
		panic("graph: " + who + " on a retired graph whose rows were handed to its ApplyDelta child or FromRows successor")
	}
}
