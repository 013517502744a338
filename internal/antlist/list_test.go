package antlist

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

// mk builds a list from groups of plain IDs: mk([]uint32{4}, []uint32{2,1})
// = ({n4},{n1,n2}).
func mk(layers ...[]uint32) List {
	sets := make([]Set, len(layers))
	for i, layer := range layers {
		s := Set{}
		for _, v := range layer {
			s = s.Add(ident.Plain(ident.NodeID(v)))
		}
		sets[i] = s
	}
	return FromSets(sets...)
}

func TestPaperMergeExample(t *testing.T) {
	// ({d},{b},{a,c}) ⊕ ({c},{a,e},{b}) = ({d,c},{b,a,e}) with
	// a=1 b=2 c=3 d=4 e=5.
	l1 := mk([]uint32{4}, []uint32{2}, []uint32{1, 3})
	l2 := mk([]uint32{3}, []uint32{1, 5}, []uint32{2})
	got := l1.Merge(l2)
	want := mk([]uint32{3, 4}, []uint32{1, 2, 5})
	if !got.Equal(want) {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
}

func TestAntBasic(t *testing.T) {
	// v=1 folds neighbor u=2's list ({2},{3}): gets ({1},{2},{3}).
	v := Singleton(ident.Plain(1))
	u := mk([]uint32{2}, []uint32{3})
	got := v.Ant(u)
	want := mk([]uint32{1}, []uint32{2}, []uint32{3})
	if !got.Equal(want) {
		t.Fatalf("Ant = %v, want %v", got, want)
	}
}

func TestAntDedupKeepsSmallestPosition(t *testing.T) {
	// v=1 already knows 3 at distance 1; neighbor 2 reports 3 at distance 1
	// (would land at 2). 3 must stay at position 1 only.
	v := mk([]uint32{1}, []uint32{3})
	u := mk([]uint32{2}, []uint32{3})
	got := v.Ant(u)
	want := mk([]uint32{1}, []uint32{2, 3})
	if !got.Equal(want) {
		t.Fatalf("Ant = %v, want %v", got, want)
	}
}

func TestAntSelfDedup(t *testing.T) {
	// Neighbor reports v itself at distance 1; v stays at position 0.
	v := Singleton(ident.Plain(1))
	u := mk([]uint32{2}, []uint32{1})
	got := v.Ant(u)
	want := mk([]uint32{1}, []uint32{2})
	if !got.Equal(want) {
		t.Fatalf("Ant = %v, want %v", got, want)
	}
}

func TestNormalizeTrimsTrailingEmpty(t *testing.T) {
	l := FromSets(NewSet(ident.Plain(1)), NewSet(ident.Plain(2)), Set{})
	got := l.Normalize()
	if got.Len() != 2 {
		t.Fatalf("Normalize = %v", got)
	}
}

func TestNormalizeKeepsIntermediateEmpty(t *testing.T) {
	// An empty middle layer is kept in place (positions are distances);
	// goodList rejects such lists at reception instead.
	l := FromSets(NewSet(ident.Plain(1)), Set{}, NewSet(ident.Plain(2)))
	got := l.Normalize()
	if got.Len() != 3 || len(got.At(1)) != 0 || !got.At(2).Has(2) {
		t.Fatalf("Normalize = %v", got)
	}
	if !got.HasEmptySet() {
		t.Fatal("empty layer should survive for goodList to reject")
	}
}

func TestNormalizeDedupEmptiesLayerInPlace(t *testing.T) {
	// Layer 1 contains only a node already at layer 0: it empties but stays.
	l := FromSets(NewSet(ident.Plain(1), ident.Plain(2)), NewSet(ident.Plain(2)), NewSet(ident.Plain(3)))
	got := l.Normalize()
	if got.Len() != 3 || len(got.At(1)) != 0 || !got.At(2).Has(3) {
		t.Fatalf("Normalize = %v", got)
	}
}

func TestTruncate(t *testing.T) {
	l := mk([]uint32{1}, []uint32{2}, []uint32{3}, []uint32{4})
	got := l.Truncate(2)
	if got.Len() != 2 || got.Has(3) || got.Has(4) {
		t.Fatalf("Truncate = %v", got)
	}
	if got2 := l.Truncate(10); !got2.Equal(l) {
		t.Fatalf("Truncate beyond len changed list: %v", got2)
	}
}

func TestPositionAndOwner(t *testing.T) {
	l := mk([]uint32{7}, []uint32{2, 5}, []uint32{9})
	if l.Owner() != 7 {
		t.Fatalf("Owner = %v", l.Owner())
	}
	if p, _ := l.Position(5); p != 1 {
		t.Fatalf("Position(5) = %d", p)
	}
	if p, _ := l.Position(42); p != -1 {
		t.Fatalf("Position(42) = %d", p)
	}
	if (List{}).Owner() != ident.None {
		t.Fatal("empty list owner should be None")
	}
}

func TestHasEmptySet(t *testing.T) {
	l := FromSets(NewSet(ident.Plain(1)), Set{})
	if !l.HasEmptySet() {
		t.Fatal("HasEmptySet should be true")
	}
	if mk([]uint32{1}).HasEmptySet() {
		t.Fatal("HasEmptySet should be false")
	}
}

func TestNodeCountAndIDs(t *testing.T) {
	l := mk([]uint32{1}, []uint32{2, 3})
	if l.NodeCount() != 3 {
		t.Fatalf("NodeCount = %d", l.NodeCount())
	}
	ids := l.IDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestPublishSharesUnchanged(t *testing.T) {
	var b Builder
	b.Reset(ident.Plain(1))
	b.Ant(mk([]uint32{2}, []uint32{3}))
	prev := b.View().Publish(List{}, nil)
	// Same fold again: Publish must hand back prev itself, not a copy.
	b.Reset(ident.Plain(1))
	b.Ant(mk([]uint32{2}, []uint32{3}))
	got := b.View().Publish(prev, nil)
	if &got.ents[0] != &prev.ents[0] {
		t.Fatal("Publish of unchanged content should return prev's storage")
	}
	// Changed fold: fresh storage, detached from the builder arena.
	b.Reset(ident.Plain(1))
	b.Ant(mk([]uint32{4}))
	got2 := b.View().Publish(prev, nil)
	if got2.Equal(prev) {
		t.Fatal("changed fold compared equal")
	}
	b.Reset(ident.Plain(9)) // clobber the arena
	if !got2.Equal(mk([]uint32{1}, []uint32{4})) {
		t.Fatalf("published list aliased the builder arena: %v", got2)
	}
}

// TestQuickPublish is Publish's contract over random (fold, prev) pairs —
// prev re-marked, prev itself, or an unrelated list: the result equals a
// Clone, shares prev's offsets exactly when the shapes match (and prev's
// entries exactly when those match too), and survives the builder arena
// being clobbered.
func TestQuickPublish(t *testing.T) {
	shared := 0
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		prev := randomList(rr)
		next := prev.Clone()
		switch rr.Intn(3) {
		case 0:
			e := &next.ents[rr.Intn(len(next.ents))]
			e.Mark = (e.Mark + 1) % 3
		case 1:
			next = randomList(rr)
		}
		var b Builder
		b.Load(next)
		view := b.View()
		pub := view.Publish(prev, nil)
		sameShape := slices.Equal(next.offs, prev.offs)
		if sameShape {
			shared++
		}
		b.Reset(ident.Plain(99))
		b.Ant(randomList(rr))
		return pub.Equal(next) &&
			(&pub.offs[0] == &prev.offs[0]) == sameShape &&
			(&pub.ents[0] == &prev.ents[0]) == next.Equal(prev) &&
			&pub.offs[0] != &view.offs[0] && &pub.ents[0] != &view.ents[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if shared < 100 {
		t.Fatalf("only %d of 300 pairs had matching shapes — the sharing went unexercised", shared)
	}
}

// TestQuickPublishIntoStore is Publish's contract with a Store over random
// (fold, prev) pairs and dirty storage of every relative capacity — none,
// too short, exact, up to two over: the result equals a Clone; it lives in
// the offered storage exactly when that is large enough; its offsets are
// prev's when the shape is prev's and otherwise the store's one copy of the
// shape, which no later Publish, into whatever storage, ever writes.
func TestQuickPublishIntoStore(t *testing.T) {
	var st Store
	interned := map[*int32][2][]int32{} // by first offset: the interned slice, and a copy of its content then
	used := 0
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		prev, next := randomList(rr), randomList(rr)
		if rr.Intn(3) == 0 {
			next = FromSets(prev.Ref()...)
			next.ents[rr.Intn(len(next.ents))].Mark = ident.MarkDouble
		}
		var dirty []ident.Entry
		if spare := rr.Intn(5) - 2; spare > -2 {
			dirty = slices.Repeat([]ident.Entry{ident.Double(0xBAD)}, max(0, next.NodeCount()+spare))
		}
		st.Take = func(need int) []ident.Entry {
			if need != next.NodeCount() {
				t.Errorf("Take(%d) for %d entries", need, next.NodeCount())
			}
			return dirty[:len(dirty)/2]
		}
		pub := next.Publish(prev, &st)
		if next.Equal(prev) {
			return &pub.ents[0] == &prev.ents[0]
		}
		fits := len(dirty) >= next.NodeCount()
		if fits {
			used++
		}
		if sameShape := slices.Equal(next.offs, prev.offs); sameShape != (&pub.offs[0] == &prev.offs[0]) {
			return false
		} else if !sameShape {
			if again := next.Publish(List{}, &st); &again.offs[0] != &pub.offs[0] {
				return false
			}
			if _, seen := interned[&pub.offs[0]]; !seen {
				interned[&pub.offs[0]] = [2][]int32{pub.offs, slices.Clone(pub.offs)}
			}
		}
		for _, o := range interned {
			if !slices.Equal(o[0], o[1]) {
				return false
			}
		}
		return pub.Equal(next.Clone()) && fits == (len(dirty) > 0 && &pub.ents[0] == &dirty[0]) &&
			&pub.offs[0] != &next.offs[0] && &pub.ents[0] != &next.ents[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if used < 100 || len(interned) < 50 {
		t.Fatalf("%d of 500 results in offered storage, %d shapes interned — the store went unexercised", used, len(interned))
	}
}

// TestBuilderSingletonLivesInRoundArena pins the arena-carved singleton:
// equal to the heap one, still intact after the arena grew under it and
// a Filter result was carved next to it, and allocation-free once the
// arena has its capacity.
func TestBuilderSingletonLivesInRoundArena(t *testing.T) {
	var b Builder
	b.BeginRound(ident.Plain(1))
	first := b.Singleton(ident.Double(7))
	filtered := b.Filter(mk([]uint32{1}, []uint32{2, 3}), func(e ident.Entry) bool { return e.ID != 3 })
	var rest []List
	for u := uint32(10); u < 200; u++ { // forces the arena to reallocate
		rest = append(rest, b.Singleton(ident.Single(ident.NodeID(u))))
	}
	if !first.Equal(Singleton(ident.Double(7))) || !filtered.Equal(mk([]uint32{1}, []uint32{2})) {
		t.Fatalf("arena growth disturbed earlier results: %v %v", first, filtered)
	}
	for i, l := range rest {
		if !l.Equal(Singleton(ident.Single(ident.NodeID(10 + i)))) {
			t.Fatalf("singleton %d = %v", i, l)
		}
	}
	b.Ant(first)
	if !b.View().Equal(FromSets(Set{ident.Plain(1)}, Set{ident.Double(7)})) {
		t.Fatalf("fold of an arena singleton = %v", b.View())
	}
	if allocs := testing.AllocsPerRun(50, func() {
		b.BeginRound(ident.Plain(1))
		b.Singleton(ident.Double(7))
		b.Singleton(ident.Single(8))
	}); allocs != 0 {
		t.Fatalf("%.0f allocs per round for arena singletons", allocs)
	}
}

func randomSets(r *rand.Rand) []Set {
	depth := 1 + r.Intn(4)
	sets := make([]Set, 0, depth)
	next := uint32(1)
	for i := 0; i < depth; i++ {
		n := 1 + r.Intn(3)
		s := Set{}
		for j := 0; j < n; j++ {
			s = s.Add(ident.Entry{ID: ident.NodeID(next), Mark: ident.Mark(r.Intn(3))})
			next++
		}
		sets = append(sets, s)
	}
	return sets
}

func randomList(r *rand.Rand) List { return FromSets(randomSets(r)...) }

func TestQuickMergeIdempotentCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomList(rr), randomList(rr)
		if !a.Merge(a).Equal(a) {
			return false
		}
		return a.Merge(b).Equal(b.Merge(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b, c := randomList(rr), randomList(rr), randomList(rr)
		return a.Merge(b).Merge(c).Equal(a.Merge(b.Merge(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAntStrictIdempotency(t *testing.T) {
	// Strict idempotency of the r-operator: ant(l, x) absorbed again is a
	// no-op — ant(ant(l,x), x) == ant(l,x).
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		l, x := randomList(rr), randomList(rr)
		once := l.Ant(x)
		return once.Ant(x).Equal(once)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		l := randomList(rr).Merge(randomList(rr))
		// No duplicate IDs anywhere; no trailing empty layer.
		seen := map[ident.NodeID]bool{}
		for _, e := range l.Entries() {
			if seen[e.ID] {
				return false
			}
			seen[e.ID] = true
		}
		return l.Len() == 0 || len(l.At(l.Len()-1)) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickArenaMatchesNestedReference replays random op sequences on the
// Builder and on the retained nested reference and requires identical
// results — the deterministic sibling of FuzzAntBuilder.
func TestQuickArenaMatchesNestedReference(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		var b Builder
		owner := ident.Plain(ident.NodeID(1 + rr.Intn(5)))
		b.Reset(owner)
		ref := RefList{Set{owner}}
		for k := 0; k < 4; k++ {
			o := randomList(rr)
			if rr.Intn(2) == 0 {
				b.Ant(o)
				ref = ref.Ant(o.Ref())
			} else {
				b.Merge(o)
				ref = ref.Merge(o.Ref())
			}
			if !b.View().Equal(ref.List()) {
				return false
			}
		}
		n := rr.Intn(5)
		return b.View().Truncate(n).Equal(ref.Truncate(n).List())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	l := FromSets(
		NewSet(ident.Plain(1)),
		NewSet(ident.Single(2), ident.Plain(3)),
		NewSet(ident.Double(4)),
	)
	buf := l.AppendBinary(nil)
	if len(buf) != l.EncodedSize() {
		t.Fatalf("EncodedSize = %d, len = %d", l.EncodedSize(), len(buf))
	}
	got, rest, err := DecodeListInto(buf, List{})
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeListInto err=%v rest=%d", err, len(rest))
	}
	if !got.Equal(l) {
		t.Fatalf("round trip = %v, want %v", got, l)
	}
}

func TestCodecRejectsTruncatedAndBadMark(t *testing.T) {
	l := mk([]uint32{1}, []uint32{2})
	buf := l.AppendBinary(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeListInto(buf[:cut], List{}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] = 7 // mark byte of last entry
	if _, _, err := DecodeListInto(bad, List{}); err == nil {
		t.Fatal("bad mark accepted")
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		l := randomList(rr)
		got, rest, err := DecodeListInto(l.AppendBinary(nil), List{})
		return err == nil && len(rest) == 0 && got.Equal(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// decodeNested is the nested-form decoder the flat one replaced, kept as its
// oracle: every entry goes through Set.Add (sorted, strongest mark wins).
func decodeNested(buf []byte) (List, bool) {
	if len(buf) < 2 {
		return List{}, false
	}
	np := int(binary.LittleEndian.Uint16(buf))
	if buf = buf[2:]; np > 1<<12 {
		return List{}, false
	}
	sets := make([]Set, np)
	for p := range sets {
		if len(buf) < 2 {
			return List{}, false
		}
		ne := int(binary.LittleEndian.Uint16(buf))
		if buf = buf[2:]; len(buf) < 5*ne {
			return List{}, false
		}
		for ; ne > 0; ne, buf = ne-1, buf[5:] {
			if buf[4] > byte(ident.MarkDouble) {
				return List{}, false
			}
			sets[p] = sets[p].Add(ident.Entry{ID: ident.NodeID(binary.LittleEndian.Uint32(buf)), Mark: ident.Mark(buf[4])})
		}
	}
	return FromSets(sets...), true
}

// TestDecodeListIntoMatchesNestedDecoder holds the one decoder to the
// nested oracle on canonical frames and on mangled ones (entries shuffled
// and repeated inside a position, bytes flipped, tails cut), into no storage
// and into the dirty storage of the previous, unrelated, decode.
func TestDecodeListIntoMatchesNestedDecoder(t *testing.T) {
	rr := rand.New(rand.NewSource(5))
	var storage List
	for i := 0; i < 2000; i++ {
		var buf []byte
		np := rr.Intn(5)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(np))
		for p := 0; p < np; p++ {
			ne := rr.Intn(6)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(ne))
			for e := 0; e < ne; e++ {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(rr.Intn(6)))
				buf = append(buf, byte(rr.Intn(3)))
			}
		}
		switch rr.Intn(4) {
		case 0:
			if len(buf) > 0 {
				buf[rr.Intn(len(buf))] ^= 1 << rr.Intn(8)
			}
		case 1:
			buf = buf[:rr.Intn(len(buf)+1)]
		}
		want, ok := decodeNested(buf)
		for _, into := range []List{{}, storage} {
			got, _, err := DecodeListInto(buf, into)
			if (err == nil) != ok {
				t.Fatalf("frame %x: DecodeListInto says %v, the nested decoder accepts=%v", buf, err, ok)
			}
			if err == nil && !got.Equal(want) {
				t.Fatalf("frame %x decoded to %v, want %v", buf, got, want)
			}
			if err == nil {
				storage = got
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		storage, _, _ = DecodeListInto([]byte{2, 0, 1, 0, 7, 0, 0, 0, 1, 2, 0, 9, 0, 0, 0, 0, 8, 0, 0, 0, 2}, storage)
	}); n != 0 {
		t.Errorf("DecodeListInto into warm storage: %v allocations", n)
	}
}

func TestEqualZeroPositionForms(t *testing.T) {
	// A decoded zero-position frame carries offs=[0]; the zero List has no
	// offs at all. The two must compare equal in both directions (the
	// receiver-side iteration must not index the other's missing slot).
	decoded, rest, err := DecodeListInto([]byte{0, 0}, List{})
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if decoded.Len() != 0 {
		t.Fatalf("decoded = %v", decoded)
	}
	if !decoded.Equal(List{}) {
		t.Fatal("decoded empty != zero List")
	}
	if !(List{}).Equal(decoded) {
		t.Fatal("zero List != decoded empty")
	}
	if decoded.Equal(Singleton(ident.Plain(1))) || Singleton(ident.Plain(1)).Equal(decoded) {
		t.Fatal("empty compared equal to a singleton")
	}
}

func TestNormalizeLargeMatchesReference(t *testing.T) {
	// Past the 32-entry small-list bound Normalize takes the seen-map
	// path; it must match the nested reference bit for bit, clean and
	// dirty, and the clean case must return the receiver's storage.
	var sets []Set
	next := uint32(1)
	for p := 0; p < 12; p++ {
		s := Set{}
		for j := 0; j < 5; j++ {
			s = s.Add(ident.Entry{ID: ident.NodeID(next), Mark: ident.Mark(next % 3)})
			next++
		}
		sets = append(sets, s)
	}
	clean := FromSets(sets...)
	if got := clean.Normalize(); !got.Equal(clean.Ref().Normalize().List()) {
		t.Fatalf("clean large list: %v", got)
	}
	if got := clean.Normalize(); &got.ents[0] != &clean.ents[0] {
		t.Fatal("clean large Normalize copied the arena")
	}
	// Duplicate a swath of early IDs into late positions.
	dirtySets := append([]Set(nil), sets...)
	dirtySets = append(dirtySets, sets[0], sets[3])
	dirty := FromSets(dirtySets...)
	if got, want := dirty.Normalize(), dirty.Ref().Normalize().List(); !got.Equal(want) {
		t.Fatalf("dirty large list: %v vs %v", got, want)
	}
}
