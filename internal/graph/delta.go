package graph

import (
	"cmp"
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
	upd = updatedSet(prev, updates, upd)
	g := deltaChild(prev, handOn)
	patches = g.rewriteUpdated(prev, updates, upd, patches, changed)
	g.patchMirrors(prev, patches, changed)
	g.upd, g.patches = upd, patches
	return g
}

// updatedSet checks the preconditions on updates and appends the updated
// nodes to upd, ascending, for the mirror-patch membership tests.
func updatedSet(prev *G, updates []NodeAdj, upd []ident.NodeID) []ident.NodeID {
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
	return upd
}

// deltaChild returns ApplyDelta's result before any row is rewritten: a
// graph over prev's roster whose row header is prev's own when handed on
// (prev is left without rows or scratch), else a copy of it (prev held).
func deltaChild(prev *G, handOn bool) *G {
	adj := prev.adj
	if handOn {
		prev.adj, prev.arena, prev.upd, prev.patches = nil, nil, nil, nil
	} else {
		adj = slices.Clone(prev.adj)
		prev.hold()
	}
	prev.shared = true
	return &G{idx: prev.idx, nodes: prev.nodes, held: prev.held, adj: adj, era: prev.era, edges: prev.edges}
}

// rewriteUpdated installs each updated row, cut from one arena of this
// step (not g.arena, which a FromRows successor may rewrite), and diffs it
// against the old row: every gained or lost neighbour that is not itself
// updated gets a mirror patch appended to patches. The edge count moves
// by one per gained or lost edge: an edge between two updated nodes is
// described by both their rows, so it is patched into neither and counted
// once, by its smaller end. g's header may be prev's own: every slot is
// read before it is written, updated and mirror slots being disjoint.
func (g *G) rewriteUpdated(prev *G, updates []NodeAdj, upd []ident.NodeID, patches []patch, changed *[]ident.NodeID) []patch {
	total := 0
	for i := range updates {
		total += len(updates[i].Adj)
	}
	arena := make([]ident.NodeID, 0, total)
	for _, up := range updates {
		u, na := up.Node, up.Adj
		iu := prev.IndexOf(u)
		old := g.adj[iu]
		oi, ni, same := 0, 0, true
		for oi < len(old) || ni < len(na) {
			p := patch{nb: u}
			var v ident.NodeID
			switch {
			case ni >= len(na) || (oi < len(old) && old[oi] < na[ni]):
				v, oi = old[oi], oi+1
			case oi >= len(old) || na[ni] < old[oi]:
				v, ni, p.add = na[ni], ni+1, true
			default:
				oi, ni = oi+1, ni+1
				continue
			}
			same = false
			_, updated := slices.BinarySearch(upd, v)
			if !updated {
				p.slot = prev.IndexOf(v)
				patches = append(patches, p)
			}
			if !updated || u < v {
				g.edges += p.delta()
			}
		}
		start := len(arena)
		arena = append(arena, na...)
		g.adj[iu] = arena[start:len(arena):len(arena)]
		if changed != nil && !same {
			*changed = append(*changed, u)
		}
	}
	return patches
}

// patchMirrors applies the mirror patches, one fresh row per touched
// neighbour, cut from a second arena sized after the diff. Each (slot, nb)
// pair occurs at most once (updates are unique), so the grouped merge is
// a plain sorted walk, and a row's length is its old one plus its
// additions minus its removals. A patch that adds a present edge or
// removes an absent one panics.
func (g *G) patchMirrors(prev *G, patches []patch, changed *[]ident.NodeID) {
	slices.SortFunc(patches, func(a, b patch) int {
		if a.slot != b.slot {
			return int(a.slot - b.slot)
		}
		return cmp.Compare(a.nb, b.nb)
	})
	total := 0
	for i, p := range patches {
		if i == 0 || p.slot != patches[i-1].slot {
			total += len(g.adj[p.slot])
		}
		total += p.delta()
	}
	arena := make([]ident.NodeID, 0, max(total, 0))
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
}

// patch is one mirror half of a gained or lost edge: nb added to or
// removed from the row at slot.
type patch struct {
	slot int32
	nb   ident.NodeID
	add  bool
}

// delta is the patch's change to a row's length, and to the edge count.
func (p patch) delta() int {
	if p.add {
		return 1
	}
	return -1
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
