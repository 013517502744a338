package priority

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

func TestLessClockThenID(t *testing.T) {
	a := Of(1, 9)
	b := Of(2, 1)
	if !a.Less(b) || b.Less(a) {
		t.Fatal("clock must dominate")
	}
	c := Of(1, 2)
	if !c.Less(a) || a.Less(c) {
		t.Fatal("ID must break clock ties")
	}
	if a.Less(a) {
		t.Fatal("Less must be strict")
	}
}

func TestTickLowersPriorityRank(t *testing.T) {
	p := New(5)
	if !p.Less(p.Tick()) {
		t.Fatal("ticking must make priority strictly worse")
	}
}

func TestMin(t *testing.T) {
	a, b := Of(3, 1), Of(1, 7)
	if a.Min(b) != b || b.Min(a) != b {
		t.Fatal("Min wrong")
	}
	if a.Min(Infinite) != a || Infinite.Min(a) != a {
		t.Fatal("Infinite must be Min's identity")
	}
}

func TestInfiniteIsIdentity(t *testing.T) {
	a := Of(1<<40, 3)
	if !a.Less(Infinite) || Infinite.Less(a) {
		t.Fatal("Infinite must lose to everything")
	}
	if !Infinite.IsInfinite() || a.IsInfinite() {
		t.Fatal("IsInfinite wrong")
	}
}

func TestString(t *testing.T) {
	if s := New(3).String(); s != "pr(0@n3)" {
		t.Fatalf("String = %q", s)
	}
	if s := Infinite.String(); s != "pr(∞)" {
		t.Fatalf("Infinite.String = %q", s)
	}
}

func TestQuickTotalOrder(t *testing.T) {
	// Less must be a strict total order: trichotomy + transitivity via sort.
	f := func(clocks []uint16, ids []uint16) bool {
		n := len(clocks)
		if len(ids) < n {
			n = len(ids)
		}
		ps := make([]P, n)
		for i := 0; i < n; i++ {
			ps[i] = Of(uint64(clocks[i]), ident.NodeID(ids[i]))
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
		for i := 1; i < len(ps); i++ {
			if ps[i].Less(ps[i-1]) {
				return false
			}
		}
		for i := range ps {
			for j := range ps {
				a, b := ps[i], ps[j]
				lt, gt, eq := a.Less(b), b.Less(a), a == b
				ones := 0
				for _, v := range []bool{lt, gt, eq} {
					if v {
						ones++
					}
				}
				if ones != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMinCommutativeAssociative(t *testing.T) {
	f := func(c1, c2, c3 uint32, i1, i2, i3 uint16) bool {
		a := Of(uint64(c1), ident.NodeID(i1))
		b := Of(uint64(c2), ident.NodeID(i2))
		c := Of(uint64(c3), ident.NodeID(i3))
		return a.Min(b) == b.Min(a) && a.Min(b).Min(c) == a.Min(b.Min(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzPriorityOrder pins the two-halves layout to the value it stores: the
// clock and ID round-trip through Of, Less is the lexicographic order of
// (clock, ID), and Infinite is the largest pair.
func FuzzPriorityOrder(f *testing.F) {
	if Infinite != Of(^uint64(0), ident.NodeID(^uint32(0))) {
		f.Fatal("Infinite is not the largest (clock, ID) pair")
	}
	for _, c := range []uint64{0, 1<<32 - 1, 1 << 32, 1 << 40, ^uint64(0)} {
		f.Add(c, uint32(7), c+1, uint32(3))
		f.Add(c, ^uint32(0), c, uint32(0))
	}
	f.Fuzz(func(t *testing.T, c1 uint64, id1 uint32, c2 uint64, id2 uint32) {
		a, b := Of(c1, ident.NodeID(id1)), Of(c2, ident.NodeID(id2))
		if a.Clock() != c1 || a.ID != ident.NodeID(id1) {
			t.Fatalf("Of(%d, %d) reads back clock %d, ID %d", c1, id1, a.Clock(), a.ID)
		}
		want := c1 < c2 || c1 == c2 && id1 < id2
		if a.Less(b) != want {
			t.Fatalf("Of(%d, %d).Less(Of(%d, %d)) = %v, want %v", c1, id1, c2, id2, a.Less(b), want)
		}
		if (a == b) != (c1 == c2 && id1 == id2) {
			t.Fatalf("Of(%d, %d) == Of(%d, %d) is %v", c1, id1, c2, id2, a == b)
		}
		if Infinite.Less(a) || a != Infinite && !a.Less(Infinite) {
			t.Fatalf("Of(%d, %d) is not below Infinite", c1, id1)
		}
	})
}
