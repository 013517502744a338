package antlist

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

func id(n uint32) ident.NodeID { return ident.NodeID(n) }

func TestSetAddKeepsSortedUnique(t *testing.T) {
	s := NewSet(ident.Plain(3), ident.Plain(1), ident.Plain(2), ident.Plain(1))
	got := s.IDs()
	want := []ident.NodeID{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
}

func TestSetAddStrongestMarkWins(t *testing.T) {
	s := NewSet(ident.Plain(1))
	s = s.Add(ident.Double(1))
	s = s.Add(ident.Single(1))
	e, ok := s.Get(1)
	if !ok || e.Mark != ident.MarkDouble {
		t.Fatalf("Get(1) = %v, %v; want double mark", e, ok)
	}
}

func TestSetAddDoesNotMutateReceiver(t *testing.T) {
	s := NewSet(ident.Plain(1), ident.Plain(3))
	before := s.String()
	_ = s.Add(ident.Plain(2))
	_ = s.Remove(1)
	if s.String() != before {
		t.Fatalf("receiver mutated: %s -> %s", before, s.String())
	}
}

func TestSetHasGetRemove(t *testing.T) {
	s := NewSet(ident.Plain(5), ident.Single(7))
	if !s.Has(5) || !s.Has(7) || s.Has(6) {
		t.Fatalf("Has wrong: %v", s)
	}
	if e, ok := s.Get(7); !ok || e.Mark != ident.MarkSingle {
		t.Fatalf("Get(7) = %v, %v", e, ok)
	}
	s2 := s.Remove(5)
	if s2.Has(5) || !s2.Has(7) {
		t.Fatalf("Remove(5) wrong: %v", s2)
	}
	if got := s.Remove(99); !slices.Equal(got, s) {
		t.Fatalf("Remove of absent id changed set: %v", got)
	}
}

func TestSetUnionMergesMarks(t *testing.T) {
	a := NewSet(ident.Plain(1), ident.Single(2))
	b := NewSet(ident.Double(2), ident.Plain(3))
	u := a.Union(b)
	want := NewSet(ident.Plain(1), ident.Double(2), ident.Plain(3))
	if !slices.Equal(u, want) {
		t.Fatalf("Union = %v, want %v", u, want)
	}
}

func TestSetUnionEmpty(t *testing.T) {
	a := NewSet(ident.Plain(1))
	if !slices.Equal(a.Union(nil), a) || !slices.Equal(Set(nil).Union(a), a) {
		t.Fatal("union with empty should be identity")
	}
	if got := Set(nil).Union(nil); len(got) != 0 {
		t.Fatalf("empty union empty = %v", got)
	}
}

func TestSetFilter(t *testing.T) {
	s := NewSet(ident.Plain(1), ident.Single(2), ident.Double(3))
	got := s.Filter(func(e ident.Entry) bool { return !e.Mark.Marked() })
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Filter = %v", got)
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(ident.Plain(1), ident.Single(2), ident.Double(3))
	if got := s.String(); got != "{n1,n2',n3''}" {
		t.Fatalf("String = %q", got)
	}
	if got := s[2].String(); got != "n3''" {
		t.Fatalf("Entry.String = %q", got)
	}
	if got := fmt.Sprint(ident.MarkPlain, ident.MarkSingle, ident.MarkDouble, ident.Mark(3)); got != "plain single double mark(3)" {
		t.Fatalf("Mark.String = %q", got)
	}
}

func randomSet(r *rand.Rand, maxID uint32) Set {
	n := r.Intn(6)
	s := Set{}
	for i := 0; i < n; i++ {
		s = s.Add(ident.Entry{ID: id(1 + r.Uint32()%maxID), Mark: ident.Mark(r.Intn(3))})
	}
	return s
}

func TestQuickSetUnionCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomSet(rr, 8), randomSet(rr, 8)
		return slices.Equal(a.Union(b), b.Union(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetUnionAssociativeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b, c := randomSet(rr, 8), randomSet(rr, 8), randomSet(rr, 8)
		if !slices.Equal(a.Union(b).Union(c), a.Union(b.Union(c))) {
			return false
		}
		return slices.Equal(a.Union(a), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetSortedInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		s := randomSet(rr, 20).Union(randomSet(rr, 20))
		return sort.SliceIsSorted(s, func(i, j int) bool { return s[i].ID < s[j].ID })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
