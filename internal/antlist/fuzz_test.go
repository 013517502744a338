package antlist

import (
	"testing"

	"repro/internal/ident"
)

// FuzzAntBuilder drives the arena Builder and the retained nested
// reference (RefList) through the same byte-derived op sequence — Reset,
// Ant, Merge, Load, Truncate, Normalize on adversarial lists with marks,
// duplicate IDs across positions and empty interior sets — and requires
// the flat result to match the nested one after every step. This is the
// oracle pinning the fold rewrite: any divergence in dedup order, mark
// resolution or tail trimming fails here before it can perturb a protocol
// trace.
func FuzzAntBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0x11, 2, 0x22, 0x31, 0xFF, 3, 0x11})
	f.Add([]byte{7, 0x41, 0x42, 0x43, 0, 0x81, 0x82, 5, 0x91})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// decodeList consumes bytes as (id, mark) pairs grouped into
		// positions: the low nibble is the ID (0 ends the position, two
		// zero bytes end the list), the high crumbs pick the mark. IDs may
		// repeat across positions; positions may be empty.
		decodeList := func() List {
			var sets []Set
			for len(sets) < 6 {
				s := Set{}
				for {
					b := next()
					if b&0x0f == 0 {
						break
					}
					s = s.Add(ident.Entry{
						ID:   ident.NodeID(b & 0x0f),
						Mark: ident.Mark((b >> 4) % 3),
					})
				}
				sets = append(sets, s)
				if len(data) == 0 || data[0] == 0 {
					next()
					break
				}
			}
			return FromSets(sets...)
		}

		var b Builder
		owner := ident.Plain(ident.NodeID(1 + next()%9))
		b.Reset(owner)
		ref := RefList{Set{owner}}
		check := func(op string) {
			got, want := b.View(), ref.List()
			if !got.Equal(want) {
				t.Fatalf("%s diverged:\narena %v\nref   %v", op, got, want)
			}
			// The committed copy must be detached and identical.
			pub := got.Publish(List{}, nil)
			if !pub.Equal(want) {
				t.Fatalf("%s publish diverged: %v vs %v", op, pub, want)
			}
		}
		check("reset")
		for steps := 0; steps < 8 && len(data) > 0; steps++ {
			op := next() % 5
			switch op {
			case 0, 1:
				o := decodeList()
				b.Ant(o)
				ref = ref.Ant(o.Ref())
				check("ant")
			case 2:
				o := decodeList()
				b.Merge(o)
				ref = ref.Merge(o.Ref())
				check("merge")
			case 3:
				n := int(next() % 7)
				trunc := b.View().Truncate(n)
				refTrunc := ref.Truncate(n)
				if !trunc.Equal(refTrunc.List()) {
					t.Fatalf("truncate(%d) diverged: %v vs %v", n, trunc, refTrunc.List())
				}
				b.Load(trunc)
				ref = refTrunc
				check("load")
			case 4:
				o := decodeList()
				if !o.Normalize().Equal(o.Ref().Normalize().List()) {
					t.Fatalf("normalize diverged for %v", o)
				}
			}
		}
		// Structural invariants of the final arena list.
		v := b.View()
		for i := 0; i < v.Len(); i++ {
			s := v.At(i)
			for j := 1; j < len(s); j++ {
				if s[j-1].ID >= s[j].ID {
					t.Fatalf("position %d not strictly ascending: %v", i, v)
				}
			}
		}
		if v.Len() > 0 && len(v.At(v.Len()-1)) == 0 {
			t.Fatalf("trailing empty set survived: %v", v)
		}
	})
}
