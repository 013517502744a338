package engine

import (
	"math/rand"
	"time"

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
	// Graph returns the current symmetric communication graph. A graph is
	// never edited in place: a topology change is a new graph, so the
	// pointer is the graph's identity. It is valid until the next Advance
	// (SpatialTopology retires what it replaces, and the next rebuild takes
	// its row header or its arena, see graph.Retire); SnapshotGraph or
	// Restrict it to keep one.
	Graph() *graph.G
	// AppendReceivers appends the nodes that can hear a broadcast from v
	// to buf and returns the extended slice (the engine's build phase
	// recycles its per-node receiver buffers through it). It must be safe
	// for concurrent read-only use (the build phase calls it from several
	// workers at once), and it must be coherent with Graph(): the receiver
	// sets may only change together with the graph Graph() returns. The
	// engine caches receiver sets on that pointer (receivers that drifted
	// under an unchanged graph could not be replayed deterministically
	// anyway); topologies whose vicinity changes every tick must, like
	// SpatialTopology, produce a fresh graph in Advance.
	AppendReceivers(v ident.NodeID, buf []ident.NodeID) []ident.NodeID
	// Nodes returns the current node population in ascending order.
	Nodes() []ident.NodeID
}

// RowTopology is an optional refinement of Topology: a topology whose
// receiver sets can be served as read-only rows lets the engine skip the
// per-sender receiver re-derivation entirely when the row is Same — the
// same window served in the same row era (space.Row) — as the one the
// sender's cached receiver set was filtered from. Delta-incremental graph
// rebuilds share untouched rows between generations within one era, so in
// a mostly-parked world almost every sender hits this cache even though
// the graph pointer changes every tick.
type RowTopology interface {
	// ReceiverRow returns the receiver set of v as a read-only row and
	// true, or (zero Row, false) when the topology cannot serve rows in its
	// current configuration (the caller must then fall back to
	// AppendReceivers). An empty row with true means v currently has no
	// receivers. The row is valid until the next Advance.
	ReceiverRow(v ident.NodeID) (space.Row, bool)
	// RowsChanged returns (a superset of) the nodes whose receiver row
	// may differ between the graph since and the current Graph(), plus
	// true — or (nil, false) when no such delta record exists (full
	// rebuild, roster change, rows unservable). With a true return the
	// engine invalidates only the listed senders' receiver caches
	// instead of every record; correctness therefore requires that any
	// node absent from the slice has a Same row in both graphs.
	RowsChanged(since *graph.G) ([]ident.NodeID, bool)
}

// StaticTopology is a graph that changes only when the experiment edits
// it between ticks (Edit), e.g. to inject a link cut or a departure. It
// serves no rows (RowTopology): an edit is rare and replaces the whole
// graph, so the engine re-derives every receiver set after one.
type StaticTopology struct{ G *graph.G }

// Edit installs the graph f makes of a copy of G (graph.RefOf, then
// graph.FromRef): G itself is never written, so an edit is a new graph —
// a new pointer to every cache keyed on it — and a snapshot that holds the
// old one keeps reading it. Call it between ticks.
func (t *StaticTopology) Edit(f func(*graph.Ref)) {
	r := graph.RefOf(t.G)
	f(r)
	t.G = graph.FromRef(r)
}

// Advance implements Topology (no motion).
func (t *StaticTopology) Advance(*rand.Rand) {}

// Graph implements Topology.
func (t *StaticTopology) Graph() *graph.G { return t.G }

// AppendReceivers implements Topology: the graph's neighbors.
func (t *StaticTopology) AppendReceivers(v ident.NodeID, buf []ident.NodeID) []ident.NodeID {
	return append(buf, t.G.NeighborsView(v)...)
}

// Nodes implements Topology.
func (t *StaticTopology) Nodes() []ident.NodeID { return t.G.Nodes() }

// SpatialTopology animates a Euclidean world with a mobility model; the
// communication graph is recomputed from positions every tick — except
// when the mobility step moved nothing (stationary models, paused nodes,
// zero DT): the world's generation counter then doesn't advance, the
// cached graph is reused pointer-identical, and the engine's receiver
// cache (keyed on the graph pointer) stays hot.
type SpatialTopology struct {
	World *space.World
	Mob   mobility.Model
	// DT is the simulated time per tick fed to the mobility model.
	DT float64

	cached  *graph.G
	stepped time.Time // when the last Advance's mobility step ended
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
// is replaced was retired first, so a delta reuses its row header and a
// full rebuild its offsets and arena.
func (t *SpatialTopology) Advance(rng *rand.Rand) {
	t.Mob.Step(t.World, t.DT, rng)
	t.stepped = time.Now()
	t.cached.Retire()
	t.cached = t.World.SymmetricGraph()
}

// spatial lets Engine.AdvancePhase reach an embedded SpatialTopology.
func (t *SpatialTopology) spatial() *SpatialTopology { return t }

// Graph implements Topology.
func (t *SpatialTopology) Graph() *graph.G { return t.cached }

// AppendReceivers implements Topology: the world's vicinity relation
// (which may be asymmetric; the protocol is in charge of symmetry
// detection).
func (t *SpatialTopology) AppendReceivers(v ident.NodeID, buf []ident.NodeID) []ident.NodeID {
	return t.World.AppendReceivers(v, buf)
}

// ReceiverRow implements RowTopology via the world's symmetric-graph row.
func (t *SpatialTopology) ReceiverRow(v ident.NodeID) (space.Row, bool) {
	return t.World.ReceiverRow(v)
}

// RowsChanged implements RowTopology via the world's delta-rebuild record.
func (t *SpatialTopology) RowsChanged(since *graph.G) ([]ident.NodeID, bool) {
	return t.World.RowsChanged(since)
}

// Nodes implements Topology.
func (t *SpatialTopology) Nodes() []ident.NodeID { return t.World.Nodes() }
