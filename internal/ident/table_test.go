package ident

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// checkTable holds t to the map reference: the same length, the same
// value and presence for every probe, and All in ascending key order
// yielding exactly the reference's pairs.
func checkTable(tb testing.TB, label string, t *Table[uint32], ref map[NodeID]uint32, probes []NodeID) {
	tb.Helper()
	if t.Len() != len(ref) {
		tb.Fatalf("%s: Len %d, reference %d", label, t.Len(), len(ref))
	}
	for _, id := range probes {
		want, wantOK := ref[id]
		got, ok := t.Get(id)
		if got != want || ok != wantOK || t.Has(id) != wantOK {
			tb.Fatalf("%s: Get(%d) = %d, %v; Has %v; reference %d, %v", label, id, got, ok, t.Has(id), want, wantOK)
		}
		if r := t.Ref(id); (r != nil) != wantOK || (r != nil && *r != want) {
			tb.Fatalf("%s: Ref(%d) = %v, reference %d, %v", label, id, r, want, wantOK)
		}
	}
	var keys []NodeID
	for id, v := range t.All() {
		if len(keys) > 0 && keys[len(keys)-1] >= id {
			tb.Fatalf("%s: All yields %d after %d", label, id, keys[len(keys)-1])
		}
		if want, ok := ref[id]; !ok || want != v {
			tb.Fatalf("%s: All yields %d=%d, reference %d, %v", label, id, v, want, ok)
		}
		keys = append(keys, id)
	}
	if len(keys) != len(ref) {
		tb.Fatalf("%s: All yields %d keys, reference holds %d", label, len(keys), len(ref))
	}
}

// TestTableMatchesMap drives random Set/Delete sequences over three ID
// populations — dense small IDs, IDs scattered over the 32-bit range, and
// fabricated IDs at and above 1<<30 — against a map, checking every read
// after every batch, then a Clone and its independence from the source.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := map[string]func() NodeID{
		"dense":      func() NodeID { return NodeID(rng.Intn(300)) },
		"sparse":     func() NodeID { return NodeID(rng.Uint32() >> uint(rng.Intn(32))) },
		"fabricated": func() NodeID { return 1<<30 + NodeID(rng.Intn(5000)) },
	}
	for name, draw := range draws {
		var tab Table[uint32]
		ref := map[NodeID]uint32{}
		var probes []NodeID
		for batch := 0; batch < 40; batch++ {
			for op := 0; op < 50; op++ {
				id := draw()
				probes = append(probes, id, id+1, id^1<<pageBits)
				if rng.Intn(3) == 0 {
					tab.Delete(id)
					delete(ref, id)
				} else {
					v := rng.Uint32()
					tab.Set(id, v)
					ref[id] = v
				}
			}
			checkTable(t, name, &tab, ref, probes)
		}
		c := tab.Clone()
		checkTable(t, name+" clone", c, ref, probes)
		for id := range ref {
			c.Delete(id)
			c.Set(id+1, 7)
		}
		checkTable(t, name+" source after the clone's writes", &tab, ref, probes)
		for id := range ref {
			tab.Delete(id)
		}
		if tab.Len() != 0 || slices.ContainsFunc(tab.dir, func(pg *page[uint32]) bool { return pg != nil }) {
			t.Fatalf("%s: emptied table keeps %d keys or a page", name, tab.Len())
		}
	}
}

// TestTableReadsAllocateNothing: reads on a nil table, on an empty one,
// past the directory and in a page's unallocated tail neither allocate
// nor grow the table — the engine probes its tables with fabricated IDs.
func TestTableReadsAllocateNothing(t *testing.T) {
	var nilTab *Table[int32]
	var tab Table[int32]
	tab.Set(5, 1)
	dir, slots := len(tab.dir), len(tab.dir[0].slots)
	probes := []NodeID{0, 6, 4095, 4096, 1 << 30, 1<<32 - 1}
	allocs := testing.AllocsPerRun(20, func() {
		for _, id := range probes {
			for _, tb := range []*Table[int32]{nilTab, &tab} {
				_, _ = tb.Get(id)
				_ = tb.Has(id)
				_ = tb.Ref(id)
				tb.Delete(id)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("reads allocate %v times", allocs)
	}
	if len(tab.dir) != dir || len(tab.dir[0].slots) != slots || tab.Len() != 1 {
		t.Fatalf("reads grew the table: directory %d → %d, page %d → %d", dir, len(tab.dir), slots, len(tab.dir[0].slots))
	}
	for range nilTab.All() {
		t.Fatal("a nil table yields a key")
	}
	if nilTab.Clone() != nil {
		t.Fatal("the clone of a nil table is not nil")
	}
}

// TestTableFootprint bounds a roster-sized table: IDs 1..20 000 plus one
// stray ID at 1<<31 hold the directory up to that ID (one pointer per
// 4 096 IDs, 4 MiB) and six pages, under 4.5 MiB for int32 values.
func TestTableFootprint(t *testing.T) {
	var tab Table[int32]
	for id := NodeID(1); id <= 20000; id++ {
		tab.Set(id, int32(id))
	}
	tab.Set(1<<31, 1)
	bytes := cap(tab.dir) * int(unsafe.Sizeof((*page[int32])(nil)))
	pages := 0
	for _, pg := range tab.dir {
		if pg != nil {
			pages++
			bytes += int(unsafe.Sizeof(*pg)) + cap(pg.slots)*int(unsafe.Sizeof(slot[int32]{}))
		}
	}
	t.Logf("%d keys: %d pages, %d B", tab.Len(), pages, bytes)
	const limit = 4.5 * (1 << 20)
	if pages != 6 || bytes > limit {
		t.Fatalf("%d pages and %d B, want 6 and at most %d", pages, bytes, int(limit))
	}
}

// FuzzTable runs byte-coded Set/Delete/Clone sequences against a map. Each
// op is five bytes: an opcode and a little-endian ID, which the opcode's
// high bits squeeze into the dense range, a page boundary's neighbourhood
// or the fabricated range, or leave anywhere in 32 bits.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 2, 1, 0, 0, 0})
	f.Add([]byte{0x40, 0xff, 0x0f, 0, 0, 0x40, 0x00, 0x10, 0, 0, 0x41, 0xff, 0x0f, 0, 0})
	f.Add([]byte{0x80, 0, 0, 0, 0x40, 0xc0, 0xff, 0xff, 0xff, 0xff, 0x81, 0, 0, 0, 0x40, 0x03, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := new(Table[uint32])
		ref := map[NodeID]uint32{}
		var probes []NodeID
		for i := 0; i+5 <= len(data); i += 5 {
			op, raw := data[i], binary.LittleEndian.Uint32(data[i+1:])
			id := NodeID(raw)
			switch op >> 6 {
			case 0:
				id %= 64
			case 1:
				id = 1<<pageBits - 8 + id%16
			case 2:
				id = 1<<30 + id%1024
			}
			probes = append(probes, id, id+1, id-1)
			switch op % 3 {
			case 0:
				tab.Set(id, raw)
				ref[id] = raw
			case 1:
				tab.Delete(id)
				delete(ref, id)
			default:
				tab = tab.Clone()
			}
		}
		checkTable(t, "fuzz", tab, ref, probes)
	})
}
