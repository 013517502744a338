package obs

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/shard"
)

// Viewer is the per-node surface the tracker's extraction phase reads: a
// change counter to reject unchanged views cheaply, and the view content
// itself. *core.Node implements it; the distributed lead (internal/dist)
// serves mirrored views shipped from the owning shard instead.
type Viewer interface {
	// ViewVersion counts view-content changes (monotone; equal values
	// imply an identical view).
	ViewVersion() uint64
	// AppendView appends the view's members in ascending order.
	AppendView(dst []ident.NodeID) []ident.NodeID
}

// Source is the engine surface GroupTracker observes. The canonical
// implementation is the adapter over *engine.Engine (NewGroupTracker);
// internal/dist implements it on the lead shard by merging the per-shard
// engines' reports in fixed shard order, which is what keeps the
// tracker's record stream bit-identical between one process and many.
//
// The slot/shard contract mirrors the engine's: the Roster assigns every
// member a stable dense slot below its SlotCap and lists members
// ascending, and DrainDirty buckets computed slots by shard.Of of the
// occupant. A Source must report every executed compute that can have
// changed a view — exactly the engine's dirty-report guarantee — and
// every row of LiveGraph that changed, or answer that it cannot tell.
type Source interface {
	// Workers is the tracker's fan-out width (a pure throughput knob).
	Workers() int
	// Dmax is the protocol's group diameter bound.
	Dmax() int
	// TrackDirty enables dirty and changed-row reporting; called once at
	// attach time.
	TrackDirty()
	// Roster is the membership: slots, slot capacity and the ascending
	// member order (read-only).
	Roster() *engine.Roster
	// ViewerAtSlot serves the occupant's view surface (nil when free).
	ViewerAtSlot(s int32) Viewer
	// DrainDirty hands over and resets the accumulated dirty report.
	DrainDirty(fn func(computed [shard.N][]int32, added []ident.NodeID, removed []engine.RemovedNode))
	// DrainRows hands over and resets the changed-row record: ids names
	// every member whose LiveGraph row may differ from the one the
	// previous call's graph gave it (repeats allowed), valid until the
	// next tick. A source that cannot tell answers all.
	DrainRows() (ids []ident.NodeID, all bool)
	// LiveGraph is the topology graph restricted to live members, read only
	// inside Observe: it may be the topology's own, retired by the next tick.
	LiveGraph() *graph.G
	// Tick is the engine tick at observation time.
	Tick() int
	// TrafficTotals returns the cumulative broadcast and reception
	// counts (globally, summed across shards in a distributed run).
	TrafficTotals() (msgs, delivs int)
	// Introspect is the flight recorder observation counters route into.
	Introspect() *introspect.Registry
}

// engineSource adapts *engine.Engine to Source. partial remembers that
// the last drain's live graph was a strict restriction of the topology's.
type engineSource struct {
	e       *engine.Engine
	partial bool
}

// EngineSource is NewGroupTracker's Source over e, for callers that wrap it.
func EngineSource(e *engine.Engine) Source { return &engineSource{e: e} }

// rowRecorder is a topology that records which graph rows changed
// (engine.SpatialTopology).
type rowRecorder interface {
	TrackRows()
	DrainRows() ([]ident.NodeID, bool)
}

func (s *engineSource) Workers() int                     { return s.e.P.Workers }
func (s *engineSource) Dmax() int                        { return s.e.P.Cfg.Dmax }
func (s *engineSource) Roster() *engine.Roster           { return s.e.Roster() }
func (s *engineSource) LiveGraph() *graph.G              { return s.e.LiveGraph() }
func (s *engineSource) Tick() int                        { return s.e.Tick() }
func (s *engineSource) Introspect() *introspect.Registry { return s.e.Introspect() }

func (s *engineSource) TrackDirty() {
	s.e.TrackDirty()
	if r, ok := s.e.Topo.(rowRecorder); ok {
		r.TrackRows()
	}
}

// DrainRows serves the topology's record while the live graph is the
// topology's own: a row of a strict restriction also changes when a
// neighbor's membership does, which no topology records, so while the
// restriction is strict, and on the drain after, every row counts.
func (s *engineSource) DrainRows() ([]ident.NodeID, bool) {
	was := s.partial
	s.partial = s.e.Topo.Graph().NumNodes() != len(s.e.Order())
	r, ok := s.e.Topo.(rowRecorder)
	if !ok {
		return nil, true
	}
	ids, all := r.DrainRows()
	return ids, all || was || s.partial
}

func (s *engineSource) TrafficTotals() (msgs, delivs int) {
	reg := s.e.Introspect()
	return int(reg.Get(introspect.CtrMessagesSent)), int(reg.Get(introspect.CtrDeliveries))
}

func (s *engineSource) ViewerAtSlot(slot int32) Viewer {
	// The nil *core.Node must become a nil interface, not a non-nil
	// interface wrapping nil.
	if n := s.e.NodeAtSlot(slot); n != nil {
		return n
	}
	return nil
}

func (s *engineSource) DrainDirty(fn func([shard.N][]int32, []ident.NodeID, []engine.RemovedNode)) {
	s.e.DrainDirty(fn)
}

// Compile-time check that core.Node satisfies the extraction surface.
var _ Viewer = (*core.Node)(nil)
