package priority

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

func TestLessClockThenID(t *testing.T) {
	a := P{Clock: 1, ID: 9}
	b := P{Clock: 2, ID: 1}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("clock must dominate")
	}
	c := P{Clock: 1, ID: 2}
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
	a, b := P{Clock: 3, ID: 1}, P{Clock: 1, ID: 7}
	if a.Min(b) != b || b.Min(a) != b {
		t.Fatal("Min wrong")
	}
	if a.Min(Infinite) != a || Infinite.Min(a) != a {
		t.Fatal("Infinite must be Min's identity")
	}
}

func TestInfiniteIsIdentity(t *testing.T) {
	a := P{Clock: 1 << 40, ID: 3}
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
			ps[i] = P{Clock: uint64(clocks[i]), ID: ident.NodeID(ids[i])}
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
		a := P{Clock: uint64(c1), ID: ident.NodeID(i1)}
		b := P{Clock: uint64(c2), ID: ident.NodeID(i2)}
		c := P{Clock: uint64(c3), ID: ident.NodeID(i3)}
		return a.Min(b) == b.Min(a) && a.Min(b).Min(c) == a.Min(b.Min(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
