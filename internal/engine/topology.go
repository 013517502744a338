package engine

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/mobility"
	"repro/internal/space"
)

// Topology abstracts where messages can travel at the current instant.
// The engine advances it once per tick and routes broadcasts through
// AppendReceivers.
type Topology interface {
	// Advance moves the topology forward by one tick.
	Advance(rng *rand.Rand)
	// Graph returns the current symmetric communication graph, valid until
	// the next Advance (SpatialTopology retires what it replaces, see
	// graph.ApplyDelta); SnapshotGraph, Restrict or Clone it to keep one.
	Graph() *graph.G
	// AppendReceivers appends the nodes that can hear a broadcast from v
	// to buf and returns the extended slice (the engine's build phase
	// recycles its per-node receiver buffers through it). It must be safe
	// for concurrent read-only use (the build phase calls it from several
	// workers at once), and it must be coherent with Graph(): the receiver
	// sets may only change together with the identity or mutation
	// generation of the graph Graph() returns. The engine caches receiver
	// sets on that key (receivers that drifted under an unchanged graph
	// could not be replayed deterministically anyway); topologies whose
	// vicinity changes every tick must, like SpatialTopology, produce a
	// fresh or generation-bumped graph in Advance.
	AppendReceivers(v ident.NodeID, buf []ident.NodeID) []ident.NodeID
	// Nodes returns the current node population in ascending order.
	Nodes() []ident.NodeID
}

// RowTopology is an optional refinement of Topology: a topology whose
// receiver sets can be served as stable read-only slices ("rows") lets
// the engine skip the per-sender receiver re-derivation entirely when
// the row is identical — same backing array, same length — to the one
// the sender's cached receiver set was filtered from. Delta-incremental
// graph rebuilds share untouched rows between generations, so in a
// mostly-parked world almost every sender hits this cache even though
// the graph pointer changes every tick.
type RowTopology interface {
	// ReceiverRow returns the receiver set of v as a read-only view and
	// true, or (nil, false) when the topology cannot serve rows in its
	// current configuration (the caller must then fall back to
	// AppendReceivers). A (nil, true) return means v currently has no
	// receivers. The view must stay valid and immutable for as long as
	// the topology shares it, and must only be returned when row
	// identity implies receiver-set identity.
	ReceiverRow(v ident.NodeID) ([]ident.NodeID, bool)
	// RowsChanged returns (a superset of) the nodes whose receiver row
	// may differ between the graph since and the current Graph(), plus
	// true — or (nil, false) when no such delta record exists (full
	// rebuild, roster change, rows unservable). With a true return the
	// engine invalidates only the listed senders' receiver caches
	// instead of every record; correctness therefore requires that any
	// node absent from the slice has an identical row in both graphs.
	RowsChanged(since *graph.G) ([]ident.NodeID, bool)
}

// StaticTopology is a fixed graph (possibly mutated between ticks by the
// experiment itself, e.g. to inject a link cut).
type StaticTopology struct{ G *graph.G }

// Advance implements Topology (no motion).
func (t *StaticTopology) Advance(*rand.Rand) {}

// Graph implements Topology.
func (t *StaticTopology) Graph() *graph.G { return t.G }

// AppendReceivers implements Topology: the graph's neighbors.
func (t *StaticTopology) AppendReceivers(v ident.NodeID, buf []ident.NodeID) []ident.NodeID {
	return t.G.AppendNeighbors(v, buf)
}

// Nodes implements Topology.
func (t *StaticTopology) Nodes() []ident.NodeID { return t.G.Nodes() }

// SpatialTopology animates a Euclidean world with a mobility model; the
// communication graph is recomputed from positions every tick — except
// when the mobility step moved nothing (stationary models, paused nodes,
// zero DT): the world's generation counter then doesn't advance, the
// cached graph is reused pointer-identical, and the engine's receiver
// cache (keyed on graph pointer + generation) stays hot.
type SpatialTopology struct {
	World *space.World
	Mob   mobility.Model
	// DT is the simulated time per tick fed to the mobility model.
	DT float64

	cached *graph.G
}

// NewSpatialTopology initializes the world with the mobility model's
// placement for the given nodes.
func NewSpatialTopology(w *space.World, mob mobility.Model, dt float64, nodes []ident.NodeID, rng *rand.Rand) *SpatialTopology {
	mob.Init(w, nodes, rng)
	t := &SpatialTopology{World: w, Mob: mob, DT: dt}
	t.cached = w.SymmetricGraph()
	return t
}

// Advance implements Topology. World.SymmetricGraph is cached on the
// world generation, so a step that moved no node costs O(1) and keeps
// the previous graph (and every cache keyed on it) intact; a graph that
// is replaced was retired first, so a delta reuses its row header.
func (t *SpatialTopology) Advance(rng *rand.Rand) {
	t.Mob.Step(t.World, t.DT, rng)
	t.cached.Retire()
	t.cached = t.World.SymmetricGraph()
}

// Graph implements Topology.
func (t *SpatialTopology) Graph() *graph.G { return t.cached }

// AppendReceivers implements Topology: the world's vicinity relation
// (which may be asymmetric; the protocol is in charge of symmetry
// detection).
func (t *SpatialTopology) AppendReceivers(v ident.NodeID, buf []ident.NodeID) []ident.NodeID {
	return t.World.AppendReceivers(v, buf)
}

// ReceiverRow implements RowTopology via the world's symmetric-graph row.
func (t *SpatialTopology) ReceiverRow(v ident.NodeID) ([]ident.NodeID, bool) {
	return t.World.ReceiverRow(v)
}

// RowsChanged implements RowTopology via the world's delta-rebuild record.
func (t *SpatialTopology) RowsChanged(since *graph.G) ([]ident.NodeID, bool) {
	return t.World.RowsChanged(since)
}

// Nodes implements Topology.
func (t *SpatialTopology) Nodes() []ident.NodeID { return t.World.Nodes() }
