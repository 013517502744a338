package dist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// roundSync is one shard's per-round report to the lead: cumulative
// traffic counters plus the round's computed set and the view contents
// that actually changed — exactly what the lead needs to drive a
// GroupTracker whose record stream is bit-identical to a single-process
// run's. View updates are deltas (a view ships only when its version
// moved past the last shipped one), so sync traffic follows protocol
// activity, not the population.
type roundSync struct {
	msgs, delivs uint64
	computed     []ident.NodeID
	views        []viewUpd
}

type viewUpd struct {
	id   ident.NodeID
	ver  uint64
	view []ident.NodeID
}

const syncMagic = 0x4753 // "GS"

func appendSync(dst []byte, rs *roundSync) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, syncMagic)
	dst = binary.LittleEndian.AppendUint64(dst, rs.msgs)
	dst = binary.LittleEndian.AppendUint64(dst, rs.delivs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs.computed)))
	for _, v := range rs.computed {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs.views)))
	for _, u := range rs.views {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(u.id))
		dst = binary.LittleEndian.AppendUint64(dst, u.ver)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(u.view)))
		for _, w := range u.view {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
		}
	}
	return dst
}

func decodeSync(buf []byte) (*roundSync, error) {
	rs := &roundSync{}
	if len(buf) < 2+16+4 {
		return nil, fmt.Errorf("dist: sync truncated")
	}
	if binary.LittleEndian.Uint16(buf) != syncMagic {
		return nil, fmt.Errorf("dist: bad sync magic")
	}
	rs.msgs = binary.LittleEndian.Uint64(buf[2:])
	rs.delivs = binary.LittleEndian.Uint64(buf[10:])
	buf = buf[18:]
	ids, buf, err := readIDList(buf)
	if err != nil {
		return nil, err
	}
	rs.computed = ids
	if len(buf) < 4 {
		return nil, fmt.Errorf("dist: sync truncated")
	}
	nview := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(nview) > uint64(len(buf)/16) {
		return nil, fmt.Errorf("dist: sync truncated")
	}
	rs.views = make([]viewUpd, 0, nview)
	for i := uint32(0); i < nview; i++ {
		if len(buf) < 12 {
			return nil, fmt.Errorf("dist: sync truncated")
		}
		u := viewUpd{
			id:  ident.NodeID(binary.LittleEndian.Uint32(buf)),
			ver: binary.LittleEndian.Uint64(buf[4:]),
		}
		u.view, buf, err = readIDList(buf[12:])
		if err != nil {
			return nil, err
		}
		rs.views = append(rs.views, u)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("dist: %d trailing sync bytes", len(buf))
	}
	return rs, nil
}

func readIDList(buf []byte) ([]ident.NodeID, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("dist: sync truncated")
	}
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(n)*4 > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("dist: sync truncated")
	}
	ids := make([]ident.NodeID, n)
	for i := range ids {
		ids[i] = ident.NodeID(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return ids, buf[4*n:], nil
}

// collectSync gathers this shard's round report: the engine's dirty
// report yields the computed set; a view ships only when its version
// moved since the last sync (initialized to the fresh node's version 1,
// which the lead mirror also starts from — so the skip semantics match
// the single-process tracker's own version-gated extraction exactly).
func (sh *Shard) collectSync(rs *roundSync) {
	rs.msgs = sh.reg.Get(introspect.CtrMessagesSent)
	rs.delivs = sh.reg.Get(introspect.CtrDeliveries)
	rs.computed = rs.computed[:0]
	rs.views = rs.views[:0]
	sh.E.DrainDirty(func(computed [engine.NumShards][]int32, added []ident.NodeID, removed []engine.RemovedNode) {
		for s := range computed {
			for _, slot := range computed[s] {
				v := sh.E.IDAtSlot(slot)
				if v == ident.None {
					continue
				}
				rs.computed = append(rs.computed, v)
				n := sh.E.NodeAtSlot(slot)
				if ver := n.ViewVersion(); ver != sh.lastViewVer[slot] {
					sh.lastViewVer[slot] = ver
					rs.views = append(rs.views, viewUpd{id: v, ver: ver, view: n.AppendView(nil)})
				}
			}
		}
	})
}

// mirrorView is the lead's replica of one node's extraction surface.
type mirrorView struct {
	id   ident.NodeID
	ver  uint64
	view []ident.NodeID
}

func (m *mirrorView) ViewVersion() uint64 { return m.ver }
func (m *mirrorView) AppendView(dst []ident.NodeID) []ident.NodeID {
	return append(dst, m.view...)
}

// leadSource implements obs.Source on shard 0 by merging the per-shard
// round reports in fixed shard order over a full-population roster that
// assigns slots in the same ascending order a single-process engine
// would — which is what keeps every slot- and shard-bucketed decision
// inside the tracker identical between one process and many.
type leadSource struct {
	sh      *Shard
	workers int
	dmax    int

	roster *engine.Roster
	views  []mirrorView

	computed [engine.NumShards][]int32
	msgs     [64]uint64 // cumulative per contributing shard
	delivs   [64]uint64

	snap metrics.SnapshotBuilder
}

func newLeadSource(sh *Shard, soak *obs.SoakConfig) *leadSource {
	ls := &leadSource{sh: sh, workers: soak.Workers, dmax: soak.Dmax,
		roster: engine.NewRoster(soak.N), views: make([]mirrorView, soak.N)}
	// A fresh node's view is {self} at version 1 (core.NewNode); the
	// mirror must serve it so the tracker's first full sync sees the
	// same initial configuration as a single-process attach.
	self := make([]ident.NodeID, soak.N)
	for i := range self {
		self[i] = ident.NodeID(i + 1)
		slot, _ := ls.roster.Add(self[i])
		ls.views[slot] = mirrorView{id: self[i], ver: 1, view: self[i : i+1 : i+1]}
	}
	return ls
}

// apply folds one shard's round report in. Callers fold shard 0 (the
// lead's own) first, then peers in ascending index order.
func (ls *leadSource) apply(shard int, rs *roundSync) {
	ls.msgs[shard] = rs.msgs
	ls.delivs[shard] = rs.delivs
	for _, v := range rs.computed {
		slot := ls.roster.SlotOf(v)
		if slot < 0 {
			continue
		}
		s := engine.ShardOf(v)
		ls.computed[s] = append(ls.computed[s], slot)
	}
	for _, u := range rs.views {
		slot := ls.roster.SlotOf(u.id)
		if slot < 0 {
			continue
		}
		ls.views[slot].ver = u.ver
		ls.views[slot].view = u.view
	}
}

func (ls *leadSource) Workers() int                { return ls.workers }
func (ls *leadSource) Dmax() int                   { return ls.dmax }
func (ls *leadSource) TrackDirty()                 {} // shards track their own engines
func (ls *leadSource) SlotCap() int                { return ls.roster.SlotCap() }
func (ls *leadSource) Order() []ident.NodeID       { return ls.roster.IDs() }
func (ls *leadSource) SlotOf(v ident.NodeID) int32 { return ls.roster.SlotOf(v) }
func (ls *leadSource) Tick() int                   { return ls.sh.E.Tick() }

func (ls *leadSource) ViewerAtSlot(s int32) obs.Viewer {
	if int(s) >= len(ls.views) || ls.views[s].id == ident.None {
		return nil
	}
	return &ls.views[s]
}

func (ls *leadSource) DrainDirty(fn func([engine.NumShards][]int32, []ident.NodeID, []engine.RemovedNode)) {
	fn(ls.computed, nil, nil)
	for s := range ls.computed {
		ls.computed[s] = ls.computed[s][:0]
	}
}

// LiveGraph restricts the lead's replicated full-world graph to the
// (fixed) global membership — the same restriction the single-process
// engine serves, and like it the identity: the replicated graph itself,
// borrowed for the Observe. The liveGen is constant because membership
// never changes in a distributed run.
func (ls *leadSource) LiveGraph() *graph.G {
	return ls.snap.Live(ls.sh.Topo.Graph(), 1, func(v ident.NodeID) bool {
		return ls.roster.SlotOf(v) >= 0
	})
}

func (ls *leadSource) TrafficTotals() (msgs, delivs int) {
	var m, d uint64
	for s := 0; s < ls.sh.N; s++ {
		m += ls.msgs[s]
		d += ls.delivs[s]
	}
	return int(m), int(d)
}

func (ls *leadSource) Introspect() *introspect.Registry { return ls.sh.E.Introspect() }
