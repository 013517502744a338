package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/wire"
)

// sampleSyncs covers the sync layout's shapes: the empty report, a view
// of length 0 beside longer ones, and every scalar field at a distinct
// non-zero value so a field dropped from one side of the codec shows.
func sampleSyncs() []*roundSync {
	return []*roundSync{
		{},
		{msgs: 0x0102030405060708, delivs: 0x1112131415161718, computed: []ident.NodeID{3, 9, 27}},
		{msgs: 5, delivs: 7, computed: []ident.NodeID{1}, ids: []ident.NodeID{4, 5, 6, 0xfffffffe}, views: []viewUpd{
			{id: 1, ver: 2},
			{id: 4, ver: 0x2122232425262728, off: 0, n: 3},
			{id: 0xfffffffe, ver: 1, off: 3, n: 1},
		}},
	}
}

// sameSync reports whether two reports say the same, wherever in their
// arenas the views lie.
func sameSync(a, b *roundSync) bool {
	return a.msgs == b.msgs && a.delivs == b.delivs && slices.Equal(a.computed, b.computed) &&
		slices.EqualFunc(a.views, b.views, func(x, y viewUpd) bool {
			return x.id == y.id && x.ver == y.ver && slices.Equal(a.view(x), b.view(y))
		})
}

// TestSyncRoundTrip decodes every sample into fresh storage and into the
// storage the previous sample left behind, which must not show through.
func TestSyncRoundTrip(t *testing.T) {
	var reused roundSync
	for i, want := range sampleSyncs() {
		buf := appendSync(nil, want)
		var fresh roundSync
		for _, got := range []*roundSync{&fresh, &reused} {
			if err := decodeSync(buf, got); err != nil {
				t.Fatalf("sample %d: %v", i, err)
			}
			if !sameSync(got, want) {
				t.Errorf("sample %d: decoded %+v, want %+v", i, got, want)
			}
		}
		// The layout is 2 magic + 2 counters + two length-prefixed sections.
		size := 2 + 16 + 4 + 4*len(want.computed) + 4
		for _, u := range want.views {
			size += 16 + 4*u.n
		}
		if len(buf) != size {
			t.Errorf("sample %d: %d bytes, want %d", i, len(buf), size)
		}
	}
	// Steady state: a report the size of the last one decodes into the
	// lead's retained roundSync without allocating.
	buf := appendSync(nil, sampleSyncs()[2])
	if n := testing.AllocsPerRun(50, func() {
		if err := decodeSync(buf, &reused); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodeSync into warm storage: %v allocations", n)
	}
}

// sampleRegistry fills every counter and every phase clock with its own
// value, so a block that is shifted, shortened or skipped cannot decode
// to the same numbers.
func sampleRegistry() *introspect.Registry {
	reg := introspect.NewRegistry(0)
	for id := introspect.CounterID(0); id < introspect.NumCounters; id++ {
		reg.Add(id, 1000+7*uint64(id))
	}
	for p := introspect.Phase(0); p < introspect.NumPhases; p++ {
		reg.AddPhaseNs(p, 1e6+13*int64(p))
	}
	return reg
}

func samplePairs() [][]obs.NodeHashPair {
	return [][]obs.NodeHashPair{
		nil,
		{{ID: 1, Hash: 0x3132333435363738}, {ID: 2, Hash: 1}, {ID: 0xfffffffe, Hash: ^uint64(0)}},
	}
}

func TestFinalRoundTrip(t *testing.T) {
	reg := sampleRegistry()
	for i, want := range samplePairs() {
		pairs, counters, phases, err := decodeFinal(appendFinal(nil, want, reg))
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !slices.Equal(pairs, want) {
			t.Errorf("sample %d: pairs %v, want %v", i, pairs, want)
		}
		if len(counters) != int(introspect.NumCounters) || len(phases) != int(introspect.NumPhases) {
			t.Fatalf("sample %d: %d counters, %d phases", i, len(counters), len(phases))
		}
		for id, v := range counters {
			if v != reg.Get(introspect.CounterID(id)) {
				t.Errorf("sample %d: counter %d = %d, want %d", i, id, v, reg.Get(introspect.CounterID(id)))
			}
		}
		for p, ns := range phases {
			if ns != reg.PhaseNs(introspect.Phase(p)) {
				t.Errorf("sample %d: phase %d = %d ns, want %d", i, p, ns, reg.PhaseNs(introspect.Phase(p)))
			}
		}
	}
}

// TestHostileLengthsAllocateNothingBig overwrites each length field a
// TCP peer controls (the computed count, nview, a view's length; n, nc,
// np) with values the rest of the frame cannot back, and requires the
// decoder to refuse before it sizes an allocation by them.
func TestHostileLengthsAllocateNothingBig(t *testing.T) {
	sync := appendSync(nil, sampleSyncs()[2])
	final := appendFinal(nil, samplePairs()[1], sampleRegistry())
	afterPairs := 6 + 12*len(samplePairs()[1])
	retained := &roundSync{} // warm: a hostile length must not grow it either
	if err := retained.syncErr(sync); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		frame  []byte
		at     int
		decode func([]byte) error
	}{
		{"sync computed", sync, 18, syncErr},
		{"sync nview", sync, 26, syncErr},
		{"sync view length", sync, 30 + 12, syncErr},
		{"sync computed, storage retained", sync, 18, retained.syncErr},
		{"sync nview, storage retained", sync, 26, retained.syncErr},
		{"sync view length, storage retained", sync, 30 + 12, retained.syncErr},
		{"final n", final, 2, finalErr},
		{"final nc", final, afterPairs, finalErr},
		{"final np", final, afterPairs + 4 + 8*int(introspect.NumCounters), finalErr},
	}
	for _, c := range cases {
		for _, n := range []uint32{^uint32(0), 1 << 31, uint32(len(c.frame))} {
			bad := bytes.Clone(c.frame)
			binary.LittleEndian.PutUint32(bad[c.at:], n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode(bad)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s = %d accepted", c.name, n)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Errorf("%s = %d: decode allocated %d bytes for a %d-byte frame", c.name, n, grew, len(bad))
			}
		}
	}
}

func syncErr(b []byte) error                 { return new(roundSync).syncErr(b) }
func (rs *roundSync) syncErr(b []byte) error { return decodeSync(b, rs) }
func finalErr(b []byte) error                { _, _, _, err := decodeFinal(b); return err }

// checkDecode is the property FuzzDecodeSyncFinal holds on any bytes:
// each decoder returns an error or a value, never panics, and — both
// layouts being canonical: every byte is a field, trailing bytes are
// refused — an accepted frame re-encodes to the very bytes that came in,
// which bounds what a decode can have allocated by the input's length.
func checkDecode(t testing.TB, data []byte) {
	if rs := new(roundSync); decodeSync(data, rs) == nil {
		if re := appendSync(nil, rs); !bytes.Equal(re, data) {
			t.Fatalf("accepted sync re-encodes to %x, came in as %x", re, data)
		}
	}
	if pairs, counters, phases, err := decodeFinal(data); err == nil {
		reg := introspect.NewRegistry(0)
		for id, v := range counters {
			reg.Add(introspect.CounterID(id), v)
		}
		for p, ns := range phases {
			reg.AddPhaseNs(introspect.Phase(p), ns)
		}
		if re := appendFinal(nil, pairs, reg); !bytes.Equal(re, data) {
			t.Fatalf("accepted final re-encodes to %x, came in as %x", re, data)
		}
	}
}

// FuzzDecodeSyncFinal is the hostile-peer model for the two frames that
// reach a shard over TCP beside the boundary batch. Every truncation and
// every single-bit flip of every valid sample is checked on each run,
// plain `go test` included; they are checked directly rather than added
// to the corpus because 8 700 seeds spend a 30 s fuzz smoke gathering
// baseline coverage. The corpus is the valid frames, and the fuzzer
// mutates from there.
func FuzzDecodeSyncFinal(f *testing.F) {
	var frames [][]byte
	for _, rs := range sampleSyncs() {
		frames = append(frames, appendSync(nil, rs))
	}
	for _, pairs := range samplePairs() {
		frames = append(frames, appendFinal(nil, pairs, sampleRegistry()))
	}
	for _, frame := range frames {
		f.Add(frame)
		for cut := 0; cut < len(frame); cut++ {
			checkDecode(f, frame[:cut])
		}
		for bit := 0; bit < 8*len(frame); bit++ {
			flipped := bytes.Clone(frame)
			flipped[bit/8] ^= 1 << (bit % 8)
			checkDecode(f, flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

// TestIngestRejectsForeignSender feeds shard 1 well-formed batches from
// peer 0 whose entry names a sender peer 0 cannot speak for: ingest must
// refuse with an error naming shard, peer, sender and seq, and neither
// index by the ID nor install a ghost for it.
func TestIngestRejectsForeignSender(t *testing.T) {
	soak := obs.SoakConfig{N: 60, Side: 20, Seed: 7, Dmax: 3, MaxRounds: 1, Static: true}
	sh, err := NewShard(Config{Soak: soak, Shards: 3}, 1, NewLoopback(3)[1])
	if err != nil {
		t.Fatal(err)
	}
	ownedBy := func(o int) ident.NodeID {
		for v := 1; v < len(sh.owners); v++ {
			if int(sh.owners[v]) == o {
				return ident.NodeID(v)
			}
		}
		t.Fatalf("shard %d owns no node", o)
		return ident.None
	}
	frame := wire.AppendEncode(nil, core.Message{})
	ingest := func(sender ident.NodeID) error {
		in := make([][]byte, 3)
		in[0] = wire.AppendBoundaryBatch(nil, wire.BoundaryBatch{Shard: 0, Seq: sh.seq,
			Entries: []wire.BoundaryEntry{{Sender: sender, Gen: 1, Ver: 1, Frame: frame}}})
		_, err := sh.ingest(in)
		return err
	}
	for name, sender := range map[string]ident.NodeID{
		"out of range":           ident.NodeID(len(sh.owners)),
		"far out of range":       ident.NodeID(^uint32(0)),
		"owned by the receiver":  ownedBy(1),
		"owned by a third shard": ownedBy(2),
		"the null ID":            ident.None,
	} {
		err := ingest(sender)
		if err == nil {
			t.Errorf("%s: sender %d from peer 0 accepted", name, sender)
			continue
		}
		for _, want := range []string{"shard 1", "peer 0", fmt.Sprintf("node %d,", sender), fmt.Sprintf("seq %d", sh.seq)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", name, err, want)
			}
		}
		if int(sender) < len(sh.ghosts) && sh.ghosts[sender] != nil {
			t.Errorf("%s: a ghost was installed for node %d", name, sender)
		}
	}
	if err := ingest(ownedBy(0)); err != nil {
		t.Errorf("an entry for the peer's own node: %v", err)
	}
}
