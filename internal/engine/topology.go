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
// The engine advances it once per tick, and a broadcast by v reaches the
// members in v's row of Graph() (graph.G.Row).
type Topology interface {
	// Advance moves the topology forward by one tick.
	Advance(rng *rand.Rand)
	// Graph returns the current symmetric communication graph. A graph is
	// never edited in place: a topology change is a new graph, so the
	// pointer is the graph's identity. It is valid until the next Advance
	// (SpatialTopology retires what it replaces, and the next rebuild takes
	// its row header or its arena, see graph.Retire); SnapshotGraph or
	// Restrict it to keep one. The engine caches receiver sets on the
	// pointer and, below it, on graph.Row.Same.
	Graph() *graph.G
	// Nodes returns the current node population in ascending order.
	Nodes() []ident.NodeID
}

// RowTopology is an optional refinement of Topology: a topology that
// records which rows a graph change touched lets the engine keep every
// other sender's receiver cache on its current epoch. Delta-incremental
// graph rebuilds share untouched rows between generations within one row
// era (graph.Row), so in a mostly-parked world almost every sender keeps
// its cache even though the graph pointer changes every tick.
type RowTopology interface {
	// RowsChanged returns (a superset of) the nodes whose receiver row
	// may differ between the graph since and the current Graph(), plus
	// true — or (nil, false) when no such delta record exists (full
	// rebuild, roster change). With a true return the engine invalidates
	// only the listed senders' receiver caches instead of every record;
	// correctness therefore requires that any node absent from the slice
	// has a Same row in both graphs.
	RowsChanged(since *graph.G) ([]ident.NodeID, bool)
}

// StaticTopology is a graph that changes only when the experiment edits
// it between ticks (Edit), e.g. to inject a link cut or a departure. It
// records no row changes (RowTopology): an edit is rare and replaces the
// whole graph, so after one every sender's receiver set is checked
// against its row of the new graph.
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

// RowsChanged implements RowTopology via the world's delta-rebuild record.
func (t *SpatialTopology) RowsChanged(since *graph.G) ([]ident.NodeID, bool) {
	return t.World.RowsChanged(since)
}

// TrackRows arms the world's changed-row record (space.World.TrackRows).
func (t *SpatialTopology) TrackRows() { t.World.TrackRows() }

// DrainRows drains the world's changed-row record up to Graph()
// (space.World.DrainRows): the nodes whose row changed since the previous
// drain, or all when the world cannot tell.
func (t *SpatialTopology) DrainRows() (ids []ident.NodeID, all bool) {
	return t.World.DrainRows(t.cached)
}

// Nodes implements Topology.
func (t *SpatialTopology) Nodes() []ident.NodeID { return t.World.Nodes() }
