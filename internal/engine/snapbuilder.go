package engine

import (
	"repro/internal/graph"
	"repro/internal/ident"
)

// snapshotBuilder maintains the topology half of a Snapshot: the source
// graph restricted to the live nodes (graph.G.Restrict).
//
//   - Every node of src live — the soak path, where world and engine
//     membership are equal by construction: the restriction is the
//     identity, src itself, held: Restrict marks it shared, so that the
//     next graph does not take its storage. A mobile world hands out a new
//     src every tick, and holding it allocates nothing.
//   - Some node of src not live (static topologies with departed nodes):
//     a deep copy of the induced subgraph.
//   - Same src (pointer: a graph is never edited in place, and holding
//     src keeps its address from being reused) and same membership as the
//     last call: the cached graph itself, same pointer — which is what
//     lets the tracker skip its neighbourhood sweep on a static topology.
//
// The graph is handed out shared and read-only. A snapshot held across
// rounds (Tracker, ΠT/ΠC) keeps seeing the topology of its own round: the
// cache is replaced, never mutated; an edit of a static topology installs
// a new src, and a retired src that is held keeps its storage. Graph sets
// src's sharing flag (see Restrict), so it belongs between rounds, never
// beside a phase that reads src concurrently.
type snapshotBuilder struct {
	src     *graph.G
	liveGen uint64
	cached  *graph.G
}

// Graph returns the subgraph of src induced by the live nodes, served
// from the cache when neither src nor the membership (keyed by liveGen, a
// counter the caller bumps on every add/remove) changed since the last
// call.
func (b *snapshotBuilder) Graph(src *graph.G, liveGen uint64, live func(ident.NodeID) bool) *graph.G {
	if b.cached != nil && b.src == src && b.liveGen == liveGen {
		return b.cached
	}
	b.src = src
	b.liveGen = liveGen
	b.cached = src.Restrict(live)
	return b.cached
}

// Live is Graph for a reader that is done with the result before src's
// owner next advances or edits it: src itself, borrowed, when every node
// of it is live — not held, so the next graph still takes its row header
// — and Graph's restricted copy otherwise.
func (b *snapshotBuilder) Live(src *graph.G, liveGen uint64, live func(ident.NodeID) bool) *graph.G {
	if src.All(live) {
		return src
	}
	return b.Graph(src, liveGen, live)
}
