package dist

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wire"
)

// roundSync is one shard's per-round report to the lead: its cumulative
// traffic counters and the views that moved on it, its ViewFeed's drain —
// exactly what the lead needs to drive a GroupTracker whose record stream
// is bit-identical to a single-process run's. Sync traffic follows protocol
// activity, not the population: a round in which no view moves ships the
// header alone. On the wire the views go in shard order, each as its node,
// its length and its members.
type roundSync struct {
	msgs, delivs uint64
	views        *obs.Views
}

const syncMagic = 0x4753 // "GS"

// syncHeader is a report's size without views: magic, counters, view count.
const syncHeader = 2 + 8 + 8 + 4

func appendSync(dst []byte, rs *roundSync) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, syncMagic)
	dst = binary.LittleEndian.AppendUint64(dst, rs.msgs)
	dst = binary.LittleEndian.AppendUint64(dst, rs.delivs)
	n := 0
	for s := range rs.views {
		n += rs.views[s].Len()
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for s := range rs.views {
		a := &rs.views[s]
		for i := range a.Len() {
			v, view := a.At(i)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(view)))
			for _, u := range view {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(u))
			}
		}
	}
	return dst
}

var errSyncOrder = errors.New("dist: sync report's views out of shard order")

// decodeSync decodes a report over rs, whose storage it reuses.
func decodeSync(buf []byte, rs *roundSync) error {
	r := wire.NewReader(buf)
	if r.U16() != syncMagic {
		return wire.ErrBadMagic
	}
	rs.msgs, rs.delivs = r.U64(), r.U64()
	if rs.views == nil {
		rs.views = new(obs.Views)
	}
	for s := range rs.views {
		rs.views[s].Reset()
	}
	last, ordered := 0, true
	for n := r.Count32(8); n > 0; n-- {
		v := ident.NodeID(r.U32())
		s := shard.Of(v)
		ordered = ordered && s >= last
		last = s
		view := rs.views[s].Add(v, r.Count32(4))
		for i := range view {
			view[i] = ident.NodeID(r.U32())
		}
	}
	if err := r.End(); err != nil || ordered {
		return err
	}
	return errSyncOrder
}

// collectSync gathers this shard's round report: its traffic counters and
// its feed's drain.
func (sh *Shard) collectSync(rs *roundSync) {
	rs.msgs, rs.delivs = sh.reg.Get(introspect.CtrMessagesSent), sh.reg.Get(introspect.CtrDeliveries)
	rs.views, _, _ = sh.feed.Drain()
}

// leadSource implements obs.Source on shard 0 over the round's reports,
// served as they were decoded in fixed shard order, and a full-population
// roster that assigns slots in the same ascending order a single-process
// engine would — which is what keeps every slot- and shard-bucketed
// decision inside the tracker identical between one process and many.
type leadSource struct {
	sh      *Shard
	roster  *engine.Roster
	reports []roundSync  // this round's, by shard: the lead's own, then each peer's decoded
	views   []*obs.Views // the reports' views, until the tracker drains them
}

func newLeadSource(sh *Shard) *leadSource {
	ls := &leadSource{sh: sh, roster: engine.NewRoster(sh.Soak.N), reports: make([]roundSync, sh.N)}
	for v := 1; v <= sh.Soak.N; v++ {
		ls.roster.Add(ident.NodeID(v))
	}
	return ls
}

// sync takes the round's reports: the lead's own rs, then every peer's,
// decoded from in in ascending shard order.
func (ls *leadSource) sync(rs *roundSync, in [][]byte) error {
	ls.reports[0] = *rs
	for p := 1; p < len(ls.reports); p++ {
		if err := decodeSync(in[p], &ls.reports[p]); err != nil {
			return fmt.Errorf("dist: sync from shard %d: %w", p, err)
		}
	}
	ls.views = ls.views[:0]
	for p := range ls.reports {
		ls.views = append(ls.views, ls.reports[p].views)
	}
	return nil
}

func (ls *leadSource) Workers() int           { return ls.sh.Soak.Workers }
func (ls *leadSource) Dmax() int              { return ls.sh.Soak.Dmax }
func (ls *leadSource) Roster() *engine.Roster { return ls.roster }
func (ls *leadSource) Tick() int              { return ls.sh.E.Tick() }

// TrackRows arms the replicated world's changed-row record.
func (ls *leadSource) TrackRows() { ls.sh.World.TrackRows() }

func (ls *leadSource) DrainRows() ([]ident.NodeID, bool) {
	return ls.sh.World.DrainRows(ls.sh.Topo.Graph())
}

// DrainViews serves the round's reports once; membership is fixed.
func (ls *leadSource) DrainViews() ([]*obs.Views, []ident.NodeID, []engine.RemovedNode) {
	views := ls.views
	ls.views = ls.views[:0]
	return views, nil, nil
}

// LiveGraph is the lead's replicated full-world graph itself, borrowed for
// the Observe: membership in a distributed run is fixed and equal to the
// world's node set, so the restriction the single-process engine serves is
// the identity here.
func (ls *leadSource) LiveGraph() *graph.G { return ls.sh.Topo.Graph() }

func (ls *leadSource) TrafficTotals() (msgs, delivs int) {
	var m, d uint64
	for _, rs := range ls.reports {
		m += rs.msgs
		d += rs.delivs
	}
	return int(m), int(d)
}

func (ls *leadSource) Introspect() *introspect.Registry { return ls.sh.E.Introspect() }
