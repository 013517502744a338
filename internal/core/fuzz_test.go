package core_test

// Fuzz target for the protocol node's message path: arbitrary bytes are
// decoded as a wire frame (the codec rejects malformed frames — frames
// that parse are the protocol's actual attack surface), fed through
// Receive and Compute with the SelfCheck reference oracle armed, and the
// node's own broadcast is round-tripped through the codec. The node must
// never panic, never break its structural invariants, and its broadcast
// must survive encode/decode semantically intact.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/wire"
)

// fuzzSeeds collects realistic frames from a short live run plus a few
// pathological hand-built ones. The second argument sizes the recycled
// buffers: spare%4 − 1 records more than the broadcast needs, and as many
// entries more than a committed list needs.
func fuzzSeeds(f *testing.F) {
	s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 4}, graph.Line(5))
	s.StepTicks(12)
	for _, v := range s.Order() {
		f.Add(wire.Encode(s.Node(v).BuildMessage()), uint8(0)) // one short
	}
	frame := wire.Encode(s.Node(s.Order()[2]).BuildMessage())
	f.Add(frame, uint8(1)) // exact
	f.Add(frame, uint8(3)) // two over: the pool's near fit
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x52, 0x47, 0x01}, uint8(0))
}

func FuzzReceiveComputeBuildRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, spare uint8) {
		m, err := wire.Decode(data)
		if err != nil {
			return // malformed frame: rejected before the protocol sees it
		}
		n := core.NewNode(1, core.Config{Dmax: 3})
		// n cross-validates against the reference oracle, and commits its
		// lists into dirty storage, as an engine's pool hands it out; a twin
		// that allocates them must reach the same state.
		scr := core.Scratch{SelfCheck: true}
		var offered []ident.Entry
		scr.Lists.Take = func(need int) []ident.Entry {
			offered = make([]ident.Entry, max(0, need+int(spare%4)-1))
			core.PoisonEntries(offered)
			return offered[:len(offered)/2]
		}
		n.SetScratch(&scr)
		twin := core.NewNode(1, core.Config{Dmax: 3})
		n.Receive(m)
		n.Compute()
		twin.Receive(m)
		twin.Compute()
		if n.StateDigest() != twin.StateDigest() || !n.List().Equal(twin.List()) {
			t.Fatalf("committed into %d dirty entries: %v, allocated: %v", len(offered), n, twin)
		}

		// Structural invariants must hold whatever the frame contained.
		if !n.InView(1) {
			t.Fatal("self missing from view")
		}
		l := n.List()
		if l.Owner() != 1 {
			t.Fatalf("list owner %v: %v", l.Owner(), l)
		}
		if l.Len() > 3+1 {
			t.Fatalf("list too long: %v", l)
		}
		view := n.View()
		for i := 1; i < len(view); i++ {
			if view[i-1] >= view[i] {
				t.Fatalf("view not strictly ascending: %v", view)
			}
		}

		// The node's own broadcast round-trips through the codec.
		out := n.BuildMessage()
		if out.EncodedSize() <= 0 {
			t.Fatal("non-positive encoded size")
		}
		dec, err := wire.Decode(wire.Encode(out))
		if err != nil {
			t.Fatalf("own broadcast rejected: %v", err)
		}
		if dec.From != out.From || !dec.List.Equal(out.List) || dec.GroupPrio != out.GroupPrio {
			t.Fatalf("round trip header mismatch: %+v vs %+v", dec, out)
		}
		dp, dg, dq := dec.PrioMaps()
		op, og, oq := out.PrioMaps()
		if !reflect.DeepEqual(dp, op) || !reflect.DeepEqual(dg, og) {
			t.Fatalf("round trip priorities mismatch")
		}
		if len(dq) != len(oq) {
			t.Fatalf("round trip quars mismatch: %v vs %v", dq, oq)
		}

		if ents := out.List.Entries(); offered != nil && (len(offered) >= len(ents)) != (len(offered) > 0 && &ents[0] == &offered[0]) {
			t.Fatalf("%d entries committed, %d offered, used: %v", len(ents), len(offered), len(offered) > 0 && &ents[0] == &offered[0])
		}

		// Built into a dirty buffer it is the same broadcast, in that
		// buffer exactly when the buffer is large enough.
		dirty := make([]core.PrioRec, max(0, n.RecsNeeded()+int(spare%4)-1))
		core.PoisonMessage(&core.Message{Recs: dirty})
		in := n.BuildMessageIn(dirty[:len(dirty)/2])
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("built into %d dirty records: %+v, fresh: %+v", len(dirty), in, out)
		}
		if fits := len(dirty) >= len(out.Recs); fits != (len(dirty) > 0 && &in.Recs[0] == &dirty[0]) {
			t.Fatalf("%d records needed, %d offered, used: %v", len(out.Recs), len(dirty), !fits)
		}

		// A second compute with no traffic detects the departure and
		// shrinks back to a singleton — and must keep the oracle happy.
		n.Compute()
		if got := n.View(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("silent round must shrink to singleton, got %v", got)
		}

		// Feeding the node its own broadcast (spoofed sender) and a copy
		// under a different sender must also hold up.
		spoof := out
		spoof.From = ident.NodeID(2)
		n.Receive(spoof)
		n.Compute()
	})
}
