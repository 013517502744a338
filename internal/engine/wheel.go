package engine

import (
	"sort"

	"repro/internal/ident"
	"repro/internal/shard"
)

// The timer wheels replace the seed simulator's per-tick scan of every
// node ("is (tick+phase) mod T zero?") with O(1) bucket lookups: a tick
// reads exactly the nodes that are due, pre-partitioned by shard so the
// build and compute phases can hand each bucket list straight to its
// worker without sorting or re-slicing anything. Entries carry the node's
// roster slot alongside its ID, so the hot phases index the engine's
// slot-indexed record table directly instead of probing a map per due
// node.

// wheelEnt is one scheduled node: its identity plus its roster slot.
type wheelEnt struct {
	id   ident.NodeID
	slot int32
}

// shardBuckets holds one wheel slot's due nodes, split by shard.
type shardBuckets [shard.N][]wheelEnt

// periodicWheel schedules fixed-period, fixed-phase timers (the Ts send
// timer and the Tc compute timer): a node with phase p and period T is
// due at every tick t with (t+p) mod T == 0, i.e. it lives permanently in
// slot (T - p mod T) mod T and slot (t mod T) is exactly the due set of
// tick t. Within a shard, buckets are kept in ascending node order, which
// fixes the canonical processing order independently of the worker count.
type periodicWheel struct {
	period int
	slots  []shardBuckets
}

func newPeriodicWheel(period int) *periodicWheel {
	return &periodicWheel{period: period, slots: make([]shardBuckets, period)}
}

func (w *periodicWheel) slotOf(phase int) int {
	return (w.period - phase%w.period) % w.period
}

// add registers v with the given timer phase.
func (w *periodicWheel) add(v wheelEnt, phase int) {
	b := &w.slots[w.slotOf(phase)][shard.Of(v.id)]
	i := sort.Search(len(*b), func(i int) bool { return (*b)[i].id >= v.id })
	*b = append(*b, wheelEnt{})
	copy((*b)[i+1:], (*b)[i:])
	(*b)[i] = v
}

// remove deregisters v (phase must match the phase it was added with).
func (w *periodicWheel) remove(v ident.NodeID, phase int) {
	b := &w.slots[w.slotOf(phase)][shard.Of(v)]
	i := sort.Search(len(*b), func(i int) bool { return (*b)[i].id >= v })
	if i < len(*b) && (*b)[i].id == v {
		*b = append((*b)[:i], (*b)[i+1:]...)
	}
}

// due returns the bucket of nodes due at tick t. The caller must treat it
// as read-only: the same bucket fires again period ticks later.
func (w *periodicWheel) due(t int) *shardBuckets {
	return &w.slots[t%w.period]
}

// oneshotWheel schedules single-fire timers up to `horizon` ticks ahead
// (the randomized send timer redraws its next instant after every
// transmission, never more than Ts ticks away, so horizon = Ts and the
// wheel needs Ts+1 slots for collisions to be impossible). Entries keep
// their scheduling order, which is deterministic: within one shard all
// scheduling happens sequentially, on the coordinator between phases or
// on the shard's own worker during the build phase.
type oneshotWheel struct {
	slots []shardBuckets
}

func newOneshotWheel(horizon int) *oneshotWheel {
	return &oneshotWheel{slots: make([]shardBuckets, horizon+1)}
}

// schedule arms v to fire at tick `at`. Only v's shard's bucket is
// touched, so concurrent schedule calls for different shards are safe.
func (w *oneshotWheel) schedule(v wheelEnt, at int) {
	b := &w.slots[at%len(w.slots)][shard.Of(v.id)]
	*b = append(*b, v)
}

// take returns the bucket firing at tick t. The caller processes it
// (rescheduling entries at strictly later ticks, which land in other
// slots because the horizon is smaller than the slot count) and then
// calls reset(t).
func (w *oneshotWheel) take(t int) *shardBuckets {
	return &w.slots[t%len(w.slots)]
}

// reset clears the slot of tick t, retaining capacity.
func (w *oneshotWheel) reset(t int) {
	s := &w.slots[t%len(w.slots)]
	for i := range s {
		s[i] = s[i][:0]
	}
}

// removeEverywhere drops every pending entry for v (node removal).
func (w *oneshotWheel) removeEverywhere(v ident.NodeID) {
	sh := shard.Of(v)
	for si := range w.slots {
		b := w.slots[si][sh]
		out := b[:0]
		for _, u := range b {
			if u.id != v {
				out = append(out, u)
			}
		}
		w.slots[si][sh] = out
	}
}
