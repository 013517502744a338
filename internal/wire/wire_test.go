package wire

import (
	"bytes"
	"cmp"
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

// decodeViaMaps is the map-era decoder, kept as DecodeInto's oracle: the
// three sections exploded into maps (so a repeated ID keeps its last value
// and section order is immaterial) and the records rebuilt from them by
// core.RecsFromMaps. DecodeInto must accept exactly the frames it accepts
// and decode each to the same message.
func decodeViaMaps(buf []byte) (core.Message, error) {
	var m core.Message
	if len(buf) < 2+1+4 {
		return m, ErrTruncated
	}
	if binary.LittleEndian.Uint16(buf) != magic || buf[2] != version {
		return m, ErrBadMagic
	}
	m.From = ident.NodeID(binary.LittleEndian.Uint32(buf[3:]))
	if buf = buf[7:]; len(buf) < 12 {
		return m, ErrTruncated
	}
	m.GroupPrio, buf = prioAt(buf), buf[12:]
	var err error
	if m.List, buf, err = antlist.DecodeListInto(buf, antlist.List{}); err != nil {
		return m, err
	}
	var pm [2]map[ident.NodeID]priority.P
	for sec := range pm {
		if len(buf) < 2 {
			return m, ErrTruncated
		}
		n := int(binary.LittleEndian.Uint16(buf))
		if buf = buf[2:]; len(buf) < n*16 {
			return m, ErrTruncated
		}
		pm[sec] = make(map[ident.NodeID]priority.P, n)
		for ; n > 0; n, buf = n-1, buf[16:] {
			pm[sec][ident.NodeID(binary.LittleEndian.Uint32(buf))] = prioAt(buf[4:])
		}
	}
	if len(buf) < 2 {
		return m, ErrTruncated
	}
	nq := int(binary.LittleEndian.Uint16(buf))
	if buf = buf[2:]; len(buf) != nq*5 {
		return m, ErrTruncated
	}
	quars := make(map[ident.NodeID]int, nq)
	for ; nq > 0; nq, buf = nq-1, buf[5:] {
		quars[ident.NodeID(binary.LittleEndian.Uint32(buf))] = int(buf[4])
	}
	m.Recs = core.RecsFromMaps(m.List, pm[0], pm[1], quars)
	return m, nil
}

// dirtyStorage is a message DecodeInto returned for some other frame — what
// its contract admits as storage — holding room for about n records, n list
// entries and n positions, all of them full of that frame's content.
func dirtyStorage(t testing.TB, n int) core.Message {
	t.Helper()
	sets := make([]antlist.Set, n)
	junk := core.Message{From: 1000}
	for i := range sets {
		id := ident.NodeID(1000 + i)
		sets[i] = antlist.NewSet(ident.Double(id))
		junk.Recs = append(junk.Recs, core.PrioRec{ID: id, Pos: int16(i), Quar: 77, HasPrio: true, HasGroupPrio: true,
			Prio: priority.P{Clock: 1 << 50, ID: id}, GroupPrio: priority.P{Clock: 1 << 51, ID: id}})
	}
	junk.List = antlist.FromSets(sets...)
	m, err := Decode(Encode(junk))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkDecodeOracle holds DecodeInto to decodeViaMaps on data: the same
// accept-or-refuse, and on accept the same message — into no storage, and
// into dirty storage smaller than, as large as and larger than the result.
// It returns what Decode returns.
func checkDecodeOracle(t testing.TB, data []byte) (core.Message, error) {
	t.Helper()
	want, wantErr := decodeViaMaps(data)
	storage := []core.Message{{}}
	if wantErr == nil {
		k := len(want.Recs)
		storage = append(storage, dirtyStorage(t, k/2), dirtyStorage(t, k), dirtyStorage(t, 2*k+3))
	}
	for i, into := range storage {
		got, err := DecodeInto(bytes.Clone(data), into)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("storage %d: DecodeInto says %v, the map-era decoder %v, on %x", i, err, wantErr, data)
		}
		if err != nil {
			continue
		}
		if got.From != want.From || got.GroupPrio != want.GroupPrio || !got.List.Equal(want.List) || !slices.Equal(got.Recs, want.Recs) {
			t.Fatalf("storage %d: frame %x decoded to\n     %+v\nwant %+v", i, data, got, want)
		}
	}
	return Decode(data)
}

type namedFrame struct {
	name  string
	frame []byte
}

type secRec struct {
	id  ident.NodeID
	val uint64 // a priority's clock (its ID is the record's), or a quarantine
}

// rawFrame assembles a frame without the encoder's discipline: the sections
// are written in the order, and with the repeats, they are given in.
func rawFrame(from ident.NodeID, list antlist.List, prios, gprios, quars []secRec) []byte {
	dst := binary.LittleEndian.AppendUint16(nil, magic)
	dst = append(dst, version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(from))
	dst = appendPrio(dst, priority.P{Clock: 4, ID: from})
	dst = list.AppendBinary(dst)
	for sec, recs := range [][]secRec{prios, gprios, quars} {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(recs)))
		for _, r := range recs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.id))
			if sec == 2 {
				dst = append(dst, byte(r.val))
			} else {
				dst = appendPrio(dst, priority.P{Clock: r.val, ID: r.id})
			}
		}
	}
	return dst
}

// nonCanonicalFrames are frames only a hostile or broken sender emits, which
// the decoder normalises instead of refusing.
func nonCanonicalFrames() []namedFrame {
	list := antlist.FromSets(
		antlist.NewSet(ident.Plain(3)),
		antlist.NewSet(ident.Plain(1), ident.Single(2)),
		antlist.NewSet(ident.Double(9)),
	)
	twice := antlist.FromSets(
		antlist.NewSet(ident.Plain(3)),
		antlist.NewSet(ident.Plain(2), ident.Plain(5)),
		antlist.NewSet(ident.Single(2), ident.Plain(7)),
	)
	// One position naming node 4 three times, out of order: the strongest
	// mark is kept.
	dupInSet := []byte{magic & 0xff, magic >> 8, version, 3, 0, 0, 0}
	dupInSet = appendPrio(dupInSet, priority.P{Clock: 4, ID: 3})
	dupInSet = append(dupInSet, 1, 0, 4, 0, 6, 0, 0, 0, 0, 4, 0, 0, 0, 1, 4, 0, 0, 0, 2, 4, 0, 0, 0, 0)
	dupInSet = append(dupInSet, 1, 0, 4, 0, 0, 0)
	dupInSet = appendPrio(dupInSet, priority.P{Clock: 8, ID: 4})
	dupInSet = append(dupInSet, 0, 0, 0, 0)
	return []namedFrame{
		{"unsorted sections", rawFrame(3, list, []secRec{{9, 1}, {3, 2}, {1, 3}, {2, 4}}, []secRec{{2, 5}, {1, 6}}, []secRec{{9, 7}, {1, 8}})},
		{"repeat in each section", rawFrame(3, list, []secRec{{1, 1}, {2, 2}, {1, 3}}, []secRec{{9, 4}, {9, 5}}, []secRec{{2, 6}, {3, 7}, {2, 8}})},
		{"quarantine-only ID", rawFrame(3, list, []secRec{{1, 1}}, nil, []secRec{{6, 9}})},
		{"unlisted IDs, repeated", rawFrame(3, list, []secRec{{8, 1}, {4, 2}, {8, 3}}, []secRec{{4, 4}, {1, 5}}, []secRec{{8, 6}, {4, 7}, {8, 0}})},
		{"ID at two positions", rawFrame(3, twice, []secRec{{2, 1}, {5, 2}}, []secRec{{2, 3}}, []secRec{{2, 4}})},
		{"ID thrice in a position", dupInSet},
		{"nothing listed", rawFrame(3, antlist.List{}, []secRec{{2, 1}, {1, 2}}, nil, []secRec{{1, 3}})},
	}
}

// TestDecodeNormalisesLikeTheMapEraDecoder pins the hostile-input semantics
// the streaming decoder took over from the maps: every non-canonical frame
// is accepted, decodes as decodeViaMaps decodes it, and the stated rules
// hold by value.
func TestDecodeNormalisesLikeTheMapEraDecoder(t *testing.T) {
	got := map[string]core.Message{}
	for _, nf := range nonCanonicalFrames() {
		name := nf.name
		m, err := checkDecodeOracle(t, nf.frame)
		if err != nil {
			t.Fatalf("%s: refused: %v", name, err)
		}
		if !slices.IsSortedFunc(m.Recs, func(a, b core.PrioRec) int {
			return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Pos, b.Pos))
		}) {
			t.Fatalf("%s: records out of (ID, Pos) order: %+v", name, m.Recs)
		}
		got[name] = m
	}
	rec := func(name string, id ident.NodeID) core.PrioRec {
		r, ok := got[name].Rec(id)
		if !ok {
			t.Fatalf("%s: no record for %d in %+v", name, id, got[name].Recs)
		}
		return r
	}
	if r := rec("unsorted sections", 1); r.Prio.Clock != 3 || r.GroupPrio.Clock != 6 || r.Quar != 8 || r.Pos != 1 {
		t.Errorf("unsorted sections: node 1 decoded to %+v", r)
	}
	if r := rec("repeat in each section", 1); r.Prio.Clock != 3 {
		t.Errorf("repeated priority: first value kept: %+v", r)
	}
	if r := rec("repeat in each section", 9); r.GroupPrio.Clock != 5 || r.HasPrio {
		t.Errorf("repeated group priority: %+v", r)
	}
	if r := rec("repeat in each section", 2); r.Quar != 8 || r.Mark != ident.MarkSingle {
		t.Errorf("repeated quarantine: %+v", r)
	}
	if r := rec("quarantine-only ID", 6); r.Pos != -1 || r.Quar != 9 || r.HasPrio || r.HasGroupPrio {
		t.Errorf("quarantine-only ID: %+v", r)
	}
	if r := rec("unlisted IDs, repeated", 8); r.Pos != -1 || r.Prio.Clock != 3 || r.HasGroupPrio || r.Quar != 0 {
		t.Errorf("unlisted node 8: %+v", r)
	}
	if r := rec("unlisted IDs, repeated", 4); r.Pos != -1 || r.Prio.Clock != 2 || r.GroupPrio.Clock != 4 || r.Quar != 7 {
		t.Errorf("unlisted node 4: %+v", r)
	}
	two := got["ID at two positions"].Recs
	if len(two) != 5 || two[0].ID != 2 || two[1].ID != 2 || two[0].Pos != 1 || two[1].Pos != 2 ||
		two[1].Mark != ident.MarkSingle || two[0].Prio != two[1].Prio || two[1].Quar != 4 || !two[1].HasGroupPrio {
		t.Errorf("ID at two positions: %+v", two)
	}
	if m := got["ID thrice in a position"]; m.List.NodeCount() != 2 || m.List.At(0)[0] != ident.Double(4) || len(m.Recs) != 2 || m.Recs[0].Prio.Clock != 8 {
		t.Errorf("ID thrice in a position: %+v", m)
	}
	if m := got["nothing listed"]; len(m.Recs) != 2 || m.Recs[0].ID != 1 || m.Recs[0].Quar != 3 || m.Recs[1].Prio.Clock != 1 {
		t.Errorf("nothing listed: %+v", m)
	}
}

// TestDecodeIntoWarmStorageAllocatesNothing pins the steady state of the
// shard boundary's receive side: decoding into storage an earlier decode
// grew allocates nothing, for the frame codec and for the batch around it.
func TestDecodeIntoWarmStorageAllocatesNothing(t *testing.T) {
	frames := [][]byte{Encode(sampleMessage())}
	for _, nf := range nonCanonicalFrames() {
		frames = append(frames, nf.frame)
	}
	var m core.Message
	decode := func() {
		for _, f := range frames {
			var err error
			if m, err = DecodeInto(f, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode()
	if n := testing.AllocsPerRun(50, decode); n != 0 {
		t.Errorf("DecodeInto into warm storage: %v allocations a pass", n)
	}
	batch := AppendBoundaryBatch(nil, sampleBatch())
	b, err := DecodeBoundaryBatch(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if b, err = DecodeBoundaryBatch(batch, b.Entries); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeBoundaryBatch into warm storage: %v allocations a batch", n)
	}
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

// TestEncodedSizeMatchesEstimate pins what core.Message.EncodedSize
// leaves out of a frame, on the message of every node at every tick of a
// run: the 9 header bytes (magic, version, three section counts) and the
// 4-byte ID key of each node- and group-priority record.
func TestEncodedSizeMatchesEstimate(t *testing.T) {
	s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: 2}, graph.Line(8))
	keys := 0
	for tick := 0; tick < 40; tick++ {
		s.StepTicks(1)
		for _, v := range s.Order() {
			m := s.Node(v).BuildMessage()
			mp, mg, _ := m.PrioMaps()
			if got, want := len(Encode(m)), m.EncodedSize()+9+4*(len(mp)+len(mg)); got != want {
				t.Fatalf("tick %d, node %v: frame of %d bytes, want EncodedSize %d + 9 + 4·%d", tick, v, got, m.EncodedSize(), len(mp)+len(mg))
			}
			keys += len(mp) + len(mg)
		}
	}
	if keys == 0 {
		t.Fatal("no message carried a priority record: the per-record term is untested")
	}
}
