package dist

import (
	"encoding/binary"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wire"
)

// roundSync is one shard's per-round report to the lead: cumulative
// traffic counters plus the round's computed set and the view contents
// that actually changed — exactly what the lead needs to drive a
// GroupTracker whose record stream is bit-identical to a single-process
// run's. View updates are deltas (a view ships only when its version
// moved past the last shipped one), so sync traffic follows protocol
// activity, not the population. The changed views lie end to end in one
// arena, ids, which like the other two slices is reused round after round.
type roundSync struct {
	msgs, delivs uint64
	computed     []ident.NodeID
	views        []viewUpd
	ids          []ident.NodeID
}

// viewUpd is one changed view: ids[off:off+n] of its roundSync.
type viewUpd struct {
	id     ident.NodeID
	ver    uint64
	off, n int
}

func (rs *roundSync) view(u viewUpd) []ident.NodeID { return rs.ids[u.off : u.off+u.n] }

const syncMagic = 0x4753 // "GS"

func appendSync(dst []byte, rs *roundSync) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, syncMagic)
	dst = binary.LittleEndian.AppendUint64(dst, rs.msgs)
	dst = binary.LittleEndian.AppendUint64(dst, rs.delivs)
	dst = appendIDs(dst, rs.computed)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs.views)))
	for _, u := range rs.views {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(u.id))
		dst = binary.LittleEndian.AppendUint64(dst, u.ver)
		dst = appendIDs(dst, rs.view(u))
	}
	return dst
}

func appendIDs(dst []byte, ids []ident.NodeID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, v := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// readIDs appends a length-prefixed ID list to dst.
func readIDs(r *wire.Reader, dst []ident.NodeID) []ident.NodeID {
	n := r.Count32(4)
	dst = slices.Grow(dst, n)
	for ; n > 0; n-- {
		dst = append(dst, ident.NodeID(r.U32()))
	}
	return dst
}

// decodeSync decodes a report over rs, whose slices it reuses.
func decodeSync(buf []byte, rs *roundSync) error {
	r := wire.NewReader(buf)
	if r.U16() != syncMagic {
		return wire.ErrBadMagic
	}
	rs.msgs, rs.delivs = r.U64(), r.U64()
	rs.computed = readIDs(&r, rs.computed[:0])
	n := r.Count32(16)
	rs.views, rs.ids = slices.Grow(rs.views[:0], n), rs.ids[:0]
	for ; n > 0; n-- {
		u := viewUpd{id: ident.NodeID(r.U32()), ver: r.U64(), off: len(rs.ids)}
		rs.ids = readIDs(&r, rs.ids)
		u.n = len(rs.ids) - u.off
		rs.views = append(rs.views, u)
	}
	return r.End()
}

// collectSync gathers this shard's round report: the engine's dirty
// report yields the computed set; a view ships only when its version
// moved since the last sync (initialized to the fresh node's version 1,
// which the lead mirror also starts from — so the skip semantics match
// the single-process tracker's own version-gated extraction exactly).
func (sh *Shard) collectSync(rs *roundSync) {
	rs.msgs = sh.reg.Get(introspect.CtrMessagesSent)
	rs.delivs = sh.reg.Get(introspect.CtrDeliveries)
	rs.computed, rs.views, rs.ids = rs.computed[:0], rs.views[:0], rs.ids[:0]
	sh.E.DrainDirty(func(computed [shard.N][]int32, added []ident.NodeID, removed []engine.RemovedNode) {
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
					off := len(rs.ids)
					rs.ids = n.AppendView(rs.ids)
					rs.views = append(rs.views, viewUpd{id: v, ver: ver, off: off, n: len(rs.ids) - off})
				}
			}
		}
	})
}

// mirrorView is the lead's replica of one node's extraction surface. The
// view is the mirror's own storage: a report is copied in, never aliased.
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
	sh *Shard

	roster *engine.Roster
	views  []mirrorView

	computed [shard.N][]int32
	msgs     []uint64 // cumulative, per contributing shard
	delivs   []uint64
}

func newLeadSource(sh *Shard) *leadSource {
	n := sh.Soak.N
	ls := &leadSource{sh: sh, roster: engine.NewRoster(n), views: make([]mirrorView, n),
		msgs: make([]uint64, sh.N), delivs: make([]uint64, sh.N)}
	// A fresh node's view is {self} at version 1 (core.NewNode); the
	// mirror must serve it so the tracker's first full sync sees the
	// same initial configuration as a single-process attach.
	self := make([]ident.NodeID, n)
	for i := range self {
		self[i] = ident.NodeID(i + 1)
		slot, _ := ls.roster.Add(self[i])
		ls.views[slot] = mirrorView{id: self[i], ver: 1, view: self[i : i+1 : i+1]}
	}
	return ls
}

// apply folds one shard's round report in. Callers fold shard 0 (the
// lead's own) first, then peers in ascending index order.
func (ls *leadSource) apply(p int, rs *roundSync) {
	ls.msgs[p] = rs.msgs
	ls.delivs[p] = rs.delivs
	for _, v := range rs.computed {
		slot := ls.roster.SlotOf(v)
		if slot < 0 {
			continue
		}
		ls.computed[shard.Of(v)] = append(ls.computed[shard.Of(v)], slot)
	}
	for _, u := range rs.views {
		slot := ls.roster.SlotOf(u.id)
		if slot < 0 {
			continue
		}
		ls.views[slot].ver = u.ver
		ls.views[slot].view = append(ls.views[slot].view[:0], rs.view(u)...)
	}
}

func (ls *leadSource) Workers() int           { return ls.sh.Soak.Workers }
func (ls *leadSource) Dmax() int              { return ls.sh.Soak.Dmax }
func (ls *leadSource) Roster() *engine.Roster { return ls.roster }
func (ls *leadSource) Tick() int              { return ls.sh.E.Tick() }

// TrackDirty arms the replicated world's changed-row record; the shards
// track their own engines' computes.
func (ls *leadSource) TrackDirty() { ls.sh.World.TrackRows() }

func (ls *leadSource) DrainRows() ([]ident.NodeID, bool) {
	return ls.sh.World.DrainRows(ls.sh.Topo.Graph())
}

func (ls *leadSource) ViewerAtSlot(s int32) obs.Viewer {
	if int(s) >= len(ls.views) || ls.views[s].id == ident.None {
		return nil
	}
	return &ls.views[s]
}

func (ls *leadSource) DrainDirty(fn func([shard.N][]int32, []ident.NodeID, []engine.RemovedNode)) {
	fn(ls.computed, nil, nil)
	for s := range ls.computed {
		ls.computed[s] = ls.computed[s][:0]
	}
}

// LiveGraph is the lead's replicated full-world graph itself, borrowed for
// the Observe: membership in a distributed run is fixed and equal to the
// world's node set, so the restriction the single-process engine serves is
// the identity here.
func (ls *leadSource) LiveGraph() *graph.G { return ls.sh.Topo.Graph() }

func (ls *leadSource) TrafficTotals() (msgs, delivs int) {
	var m, d uint64
	for p := range ls.msgs {
		m += ls.msgs[p]
		d += ls.delivs[p]
	}
	return int(m), int(d)
}

func (ls *leadSource) Introspect() *introspect.Registry { return ls.sh.E.Introspect() }
