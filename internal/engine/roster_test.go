package engine

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
)

// TestRosterSlotLifecycle pins the slot discipline: dense hand-out,
// lowest-first recycling, stability for a member's lifetime.
func TestRosterSlotLifecycle(t *testing.T) {
	r := NewRoster(0)
	for i, v := range []ident.NodeID{10, 20, 30, 40} {
		s, fresh := r.Add(v)
		if !fresh || s != int32(i) {
			t.Fatalf("Add(%d) = (%d, %v), want (%d, true)", v, s, fresh, i)
		}
	}
	if s, fresh := r.Add(20); fresh || s != 1 {
		t.Fatalf("duplicate Add(20) = (%d, %v), want (1, false)", s, fresh)
	}
	// Free slots 2 and 0; the next adds must recycle 0 first, then 2.
	if s, ok := r.Remove(30); !ok || s != 2 {
		t.Fatalf("Remove(30) = (%d, %v)", s, ok)
	}
	if s, ok := r.Remove(10); !ok || s != 0 {
		t.Fatalf("Remove(10) = (%d, %v)", s, ok)
	}
	if s, _ := r.Add(50); s != 0 {
		t.Fatalf("first recycle got slot %d, want 0", s)
	}
	if s, _ := r.Add(60); s != 2 {
		t.Fatalf("second recycle got slot %d, want 2", s)
	}
	if s, _ := r.Add(70); s != 4 {
		t.Fatalf("exhausted free list should grow: got slot %d, want 4", s)
	}
	if r.SlotCap() != 5 {
		t.Fatalf("SlotCap = %d, want 5", r.SlotCap())
	}
	// Re-adding a removed member is a fresh lifetime: it need not get its
	// old slot back, only a valid one consistent with the lookups.
	if s, ok := r.Remove(50); !ok || s != 0 {
		t.Fatalf("Remove(50) = (%d, %v)", s, ok)
	}
	if s, fresh := r.Add(10); !fresh || s != 0 {
		t.Fatalf("re-Add(10) = (%d, %v), want recycled slot 0", s, fresh)
	}
	for _, v := range r.IDs() {
		if r.bySlot[r.SlotOf(v)] != v {
			t.Fatalf("slot table inconsistent for %d", v)
		}
	}
	if r.SlotOf(999) != NoSlot {
		t.Fatal("SlotOf on a non-member must be NoSlot")
	}
}

// TestNodeIndexFollowsRoster pins Engine.Node, the one ID→node index,
// through a slot's whole life: nil for an ID never added, nil once
// removed, still nil when a different ID has recycled the slot, and the
// fresh incarnation — not the departed node — once the ID is re-added.
func TestNodeIndexFollowsRoster(t *testing.T) {
	g := graph.Line(5)
	e := New(Params{Cfg: core.Config{Dmax: 3}, Seed: 1}, &StaticTopology{G: g})
	e.RemoveNode(5) // in the graph, out of the roster until it joins below
	e.StepTicks(6)

	if e.Node(99) != nil {
		t.Fatal("Node of a never-added ID is not nil")
	}
	old, slot := e.Node(2), e.SlotOf(2)
	if old == nil || old != e.NodeAtSlot(slot) {
		t.Fatalf("Node(2) = %p, slot table holds %p", old, e.NodeAtSlot(slot))
	}
	e.RemoveNode(2)
	if e.Node(2) != nil {
		t.Fatal("Node of a removed ID is not nil")
	}
	e.AddNode(5)
	if e.SlotOf(5) != slot {
		t.Fatalf("joiner got slot %d, want the freed slot %d", e.SlotOf(5), slot)
	}
	if e.Node(2) != nil {
		t.Fatal("Node of a removed ID resolves to the slot's new occupant")
	}
	if n := e.Node(5); n == nil || n == old || n.ID() != 5 {
		t.Fatalf("Node(5) = %v after recycling the slot", n)
	}
	e.AddNode(2)
	if n := e.Node(2); n == nil || n == old || n.ID() != 2 || n.Computes() != 0 {
		t.Fatalf("re-added ID resolves to %v, want a fresh incarnation", n)
	}
}

// TestRosterChurnStorm drives a large add/remove/re-add storm and checks
// the structural invariants after every operation: ids ascending, slot
// table dense (live slots + free slots = SlotCap), and both lookup
// directions consistent.
func TestRosterChurnStorm(t *testing.T) {
	r := NewRoster(0)
	rng := rand.New(rand.NewSource(42))
	live := map[ident.NodeID]bool{}
	check := func(op string) {
		ids := r.IDs()
		if len(ids) != len(live) || r.Len() != len(live) {
			t.Fatalf("%s: %d ids, want %d", op, len(ids), len(live))
		}
		for i, v := range ids {
			if i > 0 && ids[i-1] >= v {
				t.Fatalf("%s: ids not strictly ascending at %d", op, i)
			}
			if !live[v] {
				t.Fatalf("%s: %d in ids but not live", op, v)
			}
			s := r.SlotOf(v)
			if s < 0 || int(s) >= r.SlotCap() || r.bySlot[s] != v {
				t.Fatalf("%s: slot round-trip broken for %d (slot %d)", op, v, s)
			}
		}
		freeCnt := 0
		for s := int32(0); int(s) < r.SlotCap(); s++ {
			if r.bySlot[s] == ident.None {
				freeCnt++
			}
		}
		if freeCnt+len(live) != r.SlotCap() {
			t.Fatalf("%s: %d free + %d live != cap %d", op, freeCnt, len(live), r.SlotCap())
		}
	}
	for i := 0; i < 3000; i++ {
		v := ident.NodeID(rng.Intn(300) + 1)
		if live[v] && rng.Intn(2) == 0 {
			if _, ok := r.Remove(v); !ok {
				t.Fatalf("Remove(%d) claims absent", v)
			}
			delete(live, v)
			check("remove")
		} else {
			_, fresh := r.Add(v)
			if fresh == live[v] {
				t.Fatalf("Add(%d) fresh=%v but live=%v", v, fresh, live[v])
			}
			live[v] = true
			check("add")
		}
	}
}

// TestRosterRecyclingDeterministic replays one churn script against two
// independent rosters — mirroring how the sequential and the 4-worker
// engine drive membership from the coordinator — and asserts every slot
// assignment is identical: recycling is a deterministic function of the
// operation sequence alone.
func TestRosterRecyclingDeterministic(t *testing.T) {
	type op struct {
		add bool
		v   ident.NodeID
	}
	rng := rand.New(rand.NewSource(7))
	var script []op
	live := map[ident.NodeID]bool{}
	for i := 0; i < 2000; i++ {
		v := ident.NodeID(rng.Intn(200) + 1)
		if live[v] && rng.Intn(2) == 0 {
			script = append(script, op{add: false, v: v})
			delete(live, v)
		} else {
			script = append(script, op{add: true, v: v})
			live[v] = true
		}
	}
	replay := func() []int32 {
		r := NewRoster(0)
		var slots []int32
		for _, o := range script {
			if o.add {
				s, _ := r.Add(o.v)
				slots = append(slots, s)
			} else {
				s, _ := r.Remove(o.v)
				slots = append(slots, s)
			}
		}
		return slots
	}
	a, b := replay(), replay()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: slot %d vs %d — recycling is not deterministic", i, a[i], b[i])
		}
	}
}

// FuzzRosterVsMapOracle pits the roster against a straightforward
// map-plus-sorted-free-list oracle on arbitrary op streams.
func FuzzRosterVsMapOracle(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 130, 1, 2, 4})
	f.Add([]byte{5, 5, 133, 5, 133, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := NewRoster(0)
		oracle := map[ident.NodeID]int32{}
		var free []int32 // ascending
		next := int32(0)
		for _, b := range ops {
			v := ident.NodeID(b%128 + 1)
			if b >= 128 { // remove
				want, present := oracle[v]
				got, ok := r.Remove(v)
				if ok != present {
					t.Fatalf("Remove(%d): ok=%v oracle=%v", v, ok, present)
				}
				if !present {
					continue
				}
				if got != want {
					t.Fatalf("Remove(%d): slot %d, oracle %d", v, got, want)
				}
				delete(oracle, v)
				i := sort.Search(len(free), func(i int) bool { return free[i] >= want })
				free = append(free, 0)
				copy(free[i+1:], free[i:])
				free[i] = want
			} else { // add
				old, present := oracle[v]
				got, fresh := r.Add(v)
				if fresh == present {
					t.Fatalf("Add(%d): fresh=%v oracle present=%v", v, fresh, present)
				}
				if present {
					if got != old {
						t.Fatalf("duplicate Add(%d): slot %d, oracle %d", v, got, old)
					}
					continue
				}
				var want int32
				if len(free) > 0 {
					want, free = free[0], free[1:]
				} else {
					want = next
					next++
				}
				if got != want {
					t.Fatalf("Add(%d): slot %d, oracle %d", v, got, want)
				}
				oracle[v] = want
			}
		}
		// Final cross-check of both lookup directions and the order.
		ids := r.IDs()
		if len(ids) != len(oracle) {
			t.Fatalf("%d members, oracle %d", len(ids), len(oracle))
		}
		for i, v := range ids {
			if i > 0 && ids[i-1] >= v {
				t.Fatal("ids not strictly ascending")
			}
			if r.SlotOf(v) != oracle[v] || r.bySlot[oracle[v]] != v {
				t.Fatalf("lookup mismatch for %d", v)
			}
		}
	})
}
