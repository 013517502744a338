package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/antlist"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/priority"
)

func sampleMessage() core.Message {
	list := antlist.FromSets(
		antlist.NewSet(ident.Plain(3)),
		antlist.NewSet(ident.Plain(1), ident.Single(2)),
		antlist.NewSet(ident.Double(9)),
	)
	return core.Message{
		From: 3,
		List: list,
		Recs: core.RecsFromMaps(list,
			map[ident.NodeID]priority.P{
				1: {Clock: 7, ID: 1}, 2: {Clock: 9, ID: 2}, 3: {Clock: 2, ID: 3},
			},
			map[ident.NodeID]priority.P{
				1: {Clock: 2, ID: 3}, 3: {Clock: 2, ID: 3},
			},
			map[ident.NodeID]int{1: 2}),
		GroupPrio: priority.P{Clock: 2, ID: 3},
	}
}

// encodeViaMaps is the map-era encoder, kept as AppendEncode's oracle: the
// records exploded into PrioMaps' three maps, each written in sorted-key
// order. Frames must stay byte-identical to it.
func encodeViaMaps(m core.Message) []byte {
	dst := binary.LittleEndian.AppendUint16(nil, magic)
	dst = append(dst, version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.From))
	dst = appendPrio(dst, m.GroupPrio)
	dst = m.List.AppendBinary(dst)
	prios, gprios, quars := m.PrioMaps()
	for _, pm := range []map[ident.NodeID]priority.P{prios, gprios} {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(pm)))
		for _, id := range sortedKeys(pm) {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
			dst = appendPrio(dst, pm[id])
		}
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(quars)))
	for _, id := range sortedKeys(quars) {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		dst = append(dst, byte(min(max(quars[id], 0), 255)))
	}
	return dst
}

func sortedKeys[V any](m map[ident.NodeID]V) []ident.NodeID {
	ids := make([]ident.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// checkOracle fails unless m encodes exactly as the map-era encoder did.
func checkOracle(t *testing.T, m core.Message) {
	t.Helper()
	if got, want := Encode(m), encodeViaMaps(m); !bytes.Equal(got, want) {
		t.Fatalf("frame of %+v left the map-era encoding:\n got %x\nwant %x", m, got, want)
	}
}

// TestEncodeMatchesMapEraOracle pins the frame bytes on every broadcast of
// a settled world, and on records the walk must skip or merge: a corrupted
// list repeating a node, half-advertised priorities, a clamped quarantine.
func TestEncodeMatchesMapEraOracle(t *testing.T) {
	e := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 7}, graph.Clusters(5, 4, 2, true))
	e.StepTicks(60)
	for _, v := range e.Order() {
		m, _, _, ok := e.BroadcastOf(v)
		if !ok {
			t.Fatalf("settled node %v has no broadcast", v)
		}
		checkOracle(t, *m)
	}
	p := priority.P{Clock: 5, ID: 2}
	checkOracle(t, core.Message{From: 2, Recs: []core.PrioRec{
		{ID: 1, Pos: 1, Quar: -1, HasGroupPrio: true, GroupPrio: p},
		{ID: 1, Pos: 2, Quar: 300, HasPrio: true, Prio: p, HasGroupPrio: true},
		{ID: 2, Pos: 0, Quar: -1},
		{ID: 4, Pos: 1, Quar: 0, HasPrio: true, Prio: p},
		{ID: 4, Pos: 3, Quar: 9, HasPrio: true},
	}})
	checkOracle(t, core.Message{From: 9})
}

func TestRoundTrip(t *testing.T) {
	m := sampleMessage()
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestRejectsTruncationEverywhere(t *testing.T) {
	buf := Encode(sampleMessage())
	for cut := 0; cut < len(buf); cut++ {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(buf))
		}
	}
}

func TestRejectsTrailingGarbage(t *testing.T) {
	buf := append(Encode(sampleMessage()), 0xFF)
	if _, err := Decode(buf); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestRejectsBadMagicAndVersion(t *testing.T) {
	buf := Encode(sampleMessage())
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err != ErrBadMagic {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), buf...)
	bad[2] = 99
	if _, err := Decode(bad); err != ErrBadMagic {
		t.Fatalf("bad version: %v", err)
	}
}

func TestQuarClamping(t *testing.T) {
	m := sampleMessage()
	prios, gprios, _ := m.PrioMaps()
	m.Recs = core.RecsFromMaps(m.List, prios, gprios, map[ident.NodeID]int{1: 1000, 2: -3})
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	_, _, quars := got.PrioMaps()
	if quars[1] != 255 || quars[2] != 0 {
		t.Fatalf("clamping wrong: %v", quars)
	}
}

// TestQuickLiveMessagesRoundTrip drives a real simulation and round-trips
// every message a node would actually broadcast.
func TestQuickLiveMessagesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: seed}, graph.Line(6))
		s.StepTicks(20 + int(uint64(seed)%17))
		for _, v := range s.Order() {
			m := s.Node(v).BuildMessage()
			got, err := Decode(Encode(m))
			if err != nil {
				return false
			}
			if !got.List.Equal(m.List) || got.From != m.From || got.GroupPrio != m.GroupPrio {
				return false
			}
			gp, gg, _ := got.PrioMaps()
			mp, mg, _ := m.PrioMaps()
			if !reflect.DeepEqual(normalize(gp), normalize(mp)) {
				return false
			}
			if !reflect.DeepEqual(normalize(gg), normalize(mg)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// normalize maps empty to nil so DeepEqual ignores the distinction.
func normalize(m map[ident.NodeID]priority.P) map[ident.NodeID]priority.P {
	if len(m) == 0 {
		return nil
	}
	return m
}

func TestEncodedSizeMatchesEstimate(t *testing.T) {
	// core.Message.EncodedSize is the overhead experiments' estimate; the
	// real frame must stay within a small constant of it.
	s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: 2}, graph.Line(8))
	s.StepTicks(40)
	for _, v := range s.Order() {
		m := s.Node(v).BuildMessage()
		real := len(Encode(m))
		est := m.EncodedSize()
		diff := real - est
		if diff < 0 {
			diff = -diff
		}
		mp, mg, _ := m.PrioMaps()
		if diff > 16+len(mp)*4+len(mg)*4 {
			t.Fatalf("estimate %d vs frame %d too far apart", est, real)
		}
	}
}
