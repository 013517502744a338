package obs

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
)

// Source is the engine surface GroupTracker observes. The canonical
// implementation is the adapter over *engine.Engine (NewGroupTracker);
// internal/dist implements it on the lead shard by merging the per-shard
// engines' reports in fixed shard order, which is what keeps the
// tracker's record stream bit-identical between one process and many.
//
// The slot contract mirrors the engine's: the Roster assigns every member
// a stable dense slot below its SlotCap and lists members ascending. A
// Source must hand over every view that moved since the previous drain,
// every added member's view and, on the first drain, every member's view
// (ViewFeed is the one implementation over an engine), and every row of
// LiveGraph that changed, or answer that it cannot tell.
type Source interface {
	// Workers is the tracker's fan-out width (a pure throughput knob).
	Workers() int
	// Dmax is the protocol's group diameter bound.
	Dmax() int
	// TrackRows enables changed-row reporting; called once at attach time.
	TrackRows()
	// Roster is the membership: slots, slot capacity and the ascending
	// member order (read-only).
	Roster() *engine.Roster
	// DrainViews hands over and resets the report accumulated since the
	// previous drain: the moved views, as batches a tracker shard reads in
	// order, and the membership changes, joins and departures with the
	// slot each held, in call order. All are read only inside the Observe
	// that drained them.
	DrainViews() (views []*Views, added []ident.NodeID, removed []engine.RemovedNode)
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
	feed    *ViewFeed
	batch   [1]*Views
	partial bool
}

// EngineSource is NewGroupTracker's Source over e, for callers that wrap it.
func EngineSource(e *engine.Engine) Source { return &engineSource{e: e, feed: NewViewFeed(e)} }

func (s *engineSource) Workers() int                     { return s.e.P.Workers }
func (s *engineSource) Dmax() int                        { return s.e.P.Cfg.Dmax }
func (s *engineSource) Roster() *engine.Roster           { return s.e.Roster() }
func (s *engineSource) LiveGraph() *graph.G              { return s.e.LiveGraph() }
func (s *engineSource) Tick() int                        { return s.e.Tick() }
func (s *engineSource) Introspect() *introspect.Registry { return s.e.Introspect() }

func (s *engineSource) TrackRows() {
	if sp := engine.Spatial(s.e.Topo); sp != nil {
		sp.World.TrackRows()
	}
}

func (s *engineSource) DrainViews() ([]*Views, []ident.NodeID, []engine.RemovedNode) {
	views, added, removed := s.feed.Drain()
	s.batch[0] = views
	return s.batch[:], added, removed
}

// DrainRows serves the world's changed-row record while the live graph is
// the topology's own: a row of a strict restriction also changes when a
// neighbor's membership does, which no world records, so while the
// restriction is strict, and on the drain after, every row counts.
func (s *engineSource) DrainRows() ([]ident.NodeID, bool) {
	was := s.partial
	s.partial = s.e.Topo.Graph().NumNodes() != len(s.e.Order())
	sp := engine.Spatial(s.e.Topo)
	if sp == nil {
		return nil, true
	}
	ids, all := sp.World.DrainRows(sp.Graph())
	return ids, all || was || s.partial
}

func (s *engineSource) TrafficTotals() (msgs, delivs int) {
	reg := s.e.Introspect()
	return int(reg.Get(introspect.CtrMessagesSent)), int(reg.Get(introspect.CtrDeliveries))
}
