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
// The slot/shard contract mirrors the engine's: SlotOf assigns every
// member a stable dense slot below SlotCap, DrainDirty buckets computed
// slots by shard.Of of the occupant, and Order lists members
// ascending. A Source must report every executed compute that can have
// changed a view — exactly the engine's dirty-report guarantee.
type Source interface {
	// Workers is the tracker's fan-out width (a pure throughput knob).
	Workers() int
	// Dmax is the protocol's group diameter bound.
	Dmax() int
	// TrackDirty enables dirty reporting; called once at attach time.
	TrackDirty()
	// SlotCap sizes slot-indexed observer arrays.
	SlotCap() int
	// Order lists the current members ascending (read-only view).
	Order() []ident.NodeID
	// SlotOf resolves a member's slot (< 0 when not a member).
	SlotOf(v ident.NodeID) int32
	// ViewerAtSlot serves the occupant's view surface (nil when free).
	ViewerAtSlot(s int32) Viewer
	// DrainDirty hands over and resets the accumulated dirty report.
	DrainDirty(fn func(computed [shard.N][]int32, added []ident.NodeID, removed []engine.RemovedNode))
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

// engineSource adapts *engine.Engine to Source.
type engineSource struct {
	e *engine.Engine
}

// EngineSource is NewGroupTracker's Source over e, for callers that wrap it.
func EngineSource(e *engine.Engine) Source { return engineSource{e: e} }

func (s engineSource) Workers() int                     { return s.e.P.Workers }
func (s engineSource) Dmax() int                        { return s.e.P.Cfg.Dmax }
func (s engineSource) TrackDirty()                      { s.e.TrackDirty() }
func (s engineSource) SlotCap() int                     { return s.e.SlotCap() }
func (s engineSource) Order() []ident.NodeID            { return s.e.Order() }
func (s engineSource) SlotOf(v ident.NodeID) int32      { return s.e.SlotOf(v) }
func (s engineSource) LiveGraph() *graph.G              { return s.e.LiveGraph() }
func (s engineSource) Tick() int                        { return s.e.Tick() }
func (s engineSource) Introspect() *introspect.Registry { return s.e.Introspect() }

func (s engineSource) TrafficTotals() (msgs, delivs int) {
	reg := s.e.Introspect()
	return int(reg.Get(introspect.CtrMessagesSent)), int(reg.Get(introspect.CtrDeliveries))
}

func (s engineSource) ViewerAtSlot(slot int32) Viewer {
	// The nil *core.Node must become a nil interface, not a non-nil
	// interface wrapping nil.
	if n := s.e.NodeAtSlot(slot); n != nil {
		return n
	}
	return nil
}

func (s engineSource) DrainDirty(fn func([shard.N][]int32, []ident.NodeID, []engine.RemovedNode)) {
	s.e.DrainDirty(fn)
}

// Compile-time check that core.Node satisfies the extraction surface.
var _ Viewer = (*core.Node)(nil)
