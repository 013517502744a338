package engine

import (
	"slices"
	"sort"

	"repro/internal/ident"
)

// NoSlot is the Roster's "not a member" slot value.
const NoSlot = int32(-1)

// Roster is the engine's membership structure: an incrementally
// maintained ascending node order fused with a stable dense slot
// allocator. Every member owns a small-int slot for its lifetime, so the
// per-tick hot paths (records, wheels, dirty reports, observer caches)
// index flat arrays; the ID→slot lookup at the membership boundary
// (SlotOf) is two loads into a paged ident.Table, not a hash probe.
//
// Slot discipline: slots are handed out densely (0, 1, 2, …) and freed
// slots are recycled lowest-first. Membership only ever changes on the
// coordinator between phases, so the recycling order — and with it every
// slot assignment — is a deterministic function of the Add/Remove call
// sequence, independent of the worker count.
//
// It is not goroutine-safe; the engine mutates it only between phases.
type Roster struct {
	ids     []ident.NodeID     // ascending membership (canonical order)
	slots   ident.Table[int32] // membership + ID→slot, one invariant
	slotCap int32              // slots handed out so far: live + free
	free    []int32            // freed slots, descending: the lowest, last, recycles first
}

// NewRoster returns an empty roster that n members join without growing it.
func NewRoster(n int) *Roster {
	return &Roster{ids: make([]ident.NodeID, 0, n)}
}

// Add inserts v keeping the order and assigns it a slot (recycling the
// lowest freed one, else growing the table). It returns the slot and
// whether v was new; adding an existing member returns its current slot.
func (r *Roster) Add(v ident.NodeID) (int32, bool) {
	if s, ok := r.slots.Get(v); ok {
		return s, false
	}
	var s int32
	if n := len(r.free); n > 0 {
		s, r.free = r.free[n-1], r.free[:n-1]
	} else {
		s = r.slotCap
		r.slotCap++
	}
	r.slots.Set(v, s)
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= v })
	r.ids = append(r.ids, 0)
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = v
	return s, true
}

// Remove deletes v and frees its slot for recycling. It returns the freed
// slot and whether v was present.
func (r *Roster) Remove(v ident.NodeID) (int32, bool) {
	s, ok := r.slots.Get(v)
	if !ok {
		return NoSlot, false
	}
	r.slots.Delete(v)
	r.free = slices.Insert(r.free, sort.Search(len(r.free), func(i int) bool { return r.free[i] < s }), s)
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= v })
	r.ids = append(r.ids[:i], r.ids[i+1:]...)
	return s, true
}

// Has reports membership.
func (r *Roster) Has(v ident.NodeID) bool { return r.slots.Has(v) }

// SlotOf returns v's slot, or NoSlot when v is not a member.
func (r *Roster) SlotOf(v ident.NodeID) int32 {
	if s := r.slots.Ref(v); s != nil {
		return *s
	}
	return NoSlot
}

// SlotCap returns the slot table size: every live slot is < SlotCap, so
// it is the length consumers size their slot-indexed arrays to.
func (r *Roster) SlotCap() int { return int(r.slotCap) }

// Len returns the member count.
func (r *Roster) Len() int { return len(r.ids) }

// IDs returns the members in ascending order. The slice is the roster's
// backing store: callers must not mutate it and must copy it if they keep
// it across an Add or Remove.
func (r *Roster) IDs() []ident.NodeID { return r.ids }
