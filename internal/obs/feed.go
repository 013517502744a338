package obs

import (
	"slices"

	"repro/internal/engine"
	"repro/internal/ident"
	"repro/internal/shard"
)

// Views is one drain's moved views, bucketed by shard.Of of their node.
type Views [shard.N]ViewArena

// ViewArena is one shard's moved views, each a node and its members
// (ascending), end to end in storage that is reused from drain to drain.
type ViewArena struct {
	recs []viewRec
	ids  []ident.NodeID
}

type viewRec struct {
	id  ident.NodeID
	end int32 // the members are ids[the previous record's end:end]
}

// Reset empties the arena, keeping its storage.
func (a *ViewArena) Reset() { a.recs, a.ids = a.recs[:0], a.ids[:0] }

// Len is the number of records.
func (a *ViewArena) Len() int { return len(a.recs) }

// At returns record i: the node and its members, valid until the next Reset.
func (a *ViewArena) At(i int) (ident.NodeID, []ident.NodeID) {
	start := int32(0)
	if i > 0 {
		start = a.recs[i-1].end
	}
	return a.recs[i].id, a.ids[start:a.recs[i].end]
}

// Add appends a record for v with n members and returns their storage.
func (a *ViewArena) Add(v ident.NodeID, n int) []ident.NodeID {
	at := len(a.ids)
	a.ids = slices.Grow(a.ids, n)[:at+n]
	a.recs = append(a.recs, viewRec{id: v, end: int32(at + n)})
	return a.ids[at:]
}

// ViewFeed is the one place that decides which of an engine's views moved;
// the tracker's engine source and a dist shard's lead sync drain it. It
// keeps, per slot, the ViewVersion it last handed out. An addition resets
// its slot's entry, so an added node's view goes out whatever it holds,
// and the first drain counts every live member as added.
type ViewFeed struct {
	e      *engine.Engine
	ver    []uint64 // slot → the ViewVersion last handed out; 0: none
	synced bool

	computed [shard.N][]int32 // the engine's report, during a drain
	fresh    [shard.N][]int32 // the added slots, by shard
	added    []ident.NodeID
	removed  []engine.RemovedNode
	views    Views
}

// NewViewFeed arms e's dirty report and returns a feed over it.
func NewViewFeed(e *engine.Engine) *ViewFeed {
	e.TrackDirty()
	return &ViewFeed{e: e}
}

// Drain hands over the views that moved since the previous drain and the
// membership changes, joins and departures with the slot each held, in
// call order; all three are valid until the next Drain.
func (f *ViewFeed) Drain() (*Views, []ident.NodeID, []engine.RemovedNode) {
	f.e.DrainDirty(f.collect)
	return &f.views, f.added, f.removed
}

// collect walks the engine's report a shard at a time: the computed slots,
// then the added ones. The shard guard leaves a slot recycled into another
// shard to its new occupant's, whose added list names it, so no slot is
// touched by two participants.
func (f *ViewFeed) collect(computed [shard.N][]int32, added []ident.NodeID, removed []engine.RemovedNode) {
	f.added, f.removed = append(f.added[:0], added...), append(f.removed[:0], removed...)
	if c := f.e.Roster().SlotCap(); len(f.ver) < c {
		f.ver = append(f.ver, make([]uint64, c-len(f.ver))...)
	}
	if f.synced {
		f.computed = computed
	} else {
		f.synced, added = true, f.e.Order()
	}
	for s := range f.fresh {
		f.fresh[s] = f.fresh[s][:0]
	}
	for _, v := range added {
		if slot := f.e.SlotOf(v); slot >= 0 {
			f.ver[slot] = 0
			f.fresh[shard.Of(v)] = append(f.fresh[shard.Of(v)], slot)
		}
	}
	shard.Run(f.e.P.Workers, func(s, w int) {
		// Room for every candidate at Dmax+1 members: the first drain's
		// arenas come in one allocation each.
		a, k := &f.views[s], len(f.computed[s])+len(f.fresh[s])
		a.recs, a.ids = slices.Grow(a.recs[:0], k), slices.Grow(a.ids[:0], (f.e.P.Cfg.Dmax+1)*k)
		for _, slots := range [2][]int32{f.computed[s], f.fresh[s]} {
			for _, slot := range slots {
				n := f.e.NodeAtSlot(slot)
				if n == nil || shard.Of(n.ID()) != s || n.ViewVersion() == f.ver[slot] {
					continue // freed, recycled into another shard, or unmoved
				}
				f.ver[slot] = n.ViewVersion()
				a.ids = n.AppendView(a.ids)
				a.recs = append(a.recs, viewRec{id: n.ID(), end: int32(len(a.ids))})
			}
		}
	})
	f.computed = [shard.N][]int32{} // the engine's storage, not held past the drain
}
