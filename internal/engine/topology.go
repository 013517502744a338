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
	// (SpatialTopology retires what it replaces, and the next graph takes
	// its storage, see graph.Retire); SnapshotGraph or an identity Restrict
	// holds it. The engine caches receiver sets on the pointer and, below
	// it, on graph.Row.Same.
	Graph() *graph.G
	// Nodes returns the current node population in ascending order.
	Nodes() []ident.NodeID
}

// StaticTopology is a graph that changes only when the experiment edits
// it between ticks (Edit), e.g. to inject a link cut or a departure. It
// records no row changes (only a SpatialTopology's world does): an edit is
// rare and replaces the whole graph, so after one every sender's receiver
// set is checked against its row of the new graph.
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
// full rebuild its header and arena.
func (t *SpatialTopology) Advance(rng *rand.Rand) {
	t.Mob.Step(t.World, t.DT, rng)
	t.stepped = time.Now()
	t.cached.Retire()
	t.cached = t.World.SymmetricGraph()
}

// spatial is what Spatial finds, in t or in a topology embedding it.
func (t *SpatialTopology) spatial() *SpatialTopology { return t }

// Spatial returns the SpatialTopology that t is or embeds, or nil: its
// World records which rows a rebuild changed (RowsChanged, DrainRows).
func Spatial(t Topology) *SpatialTopology {
	if s, ok := t.(interface{ spatial() *SpatialTopology }); ok {
		return s.spatial()
	}
	return nil
}

// Graph implements Topology.
func (t *SpatialTopology) Graph() *graph.G { return t.cached }

// Nodes implements Topology.
func (t *SpatialTopology) Nodes() []ident.NodeID { return t.World.Nodes() }
