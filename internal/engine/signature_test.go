package engine

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/introspect"
)

// Unit-level pins for the inbox-signature primitives. The conformance
// suite proves these end to end through whole-trace equality; these
// tests nail the boundary semantics directly so a regression names the
// broken primitive instead of a diverging round 37.

func sv(id ident.NodeID, gen, ver uint64) senderVer {
	return senderVer{id: id, gen: gen, ver: ver}
}

func TestPendingUpsert(t *testing.T) {
	var p []senderVer

	// Inserts keep ascending sender order regardless of arrival order.
	for _, s := range []senderVer{sv(5, 1, 10), sv(2, 1, 20), sv(9, 1, 30), sv(7, 1, 40)} {
		var dup bool
		p, dup = pendingUpsert(p, s)
		if dup {
			t.Fatalf("insert of %v reported duplicate", s)
		}
	}
	want := []senderVer{sv(2, 1, 20), sv(5, 1, 10), sv(7, 1, 40), sv(9, 1, 30)}
	if !slices.Equal(p, want) {
		t.Fatalf("after inserts: %v, want %v", p, want)
	}

	// A duplicate sender overwrites in place — last write wins, like
	// core.Node.Receive keeps only the sender's last message — and the
	// slice neither grows nor reorders.
	p, dup := pendingUpsert(p, sv(5, 1, 11))
	if dup {
		t.Fatal("changed version reported as duplicate")
	}
	want[1] = sv(5, 1, 11)
	if !slices.Equal(p, want) {
		t.Fatalf("after overwrite: %v, want %v", p, want)
	}

	// An exact repeat reports dup — the caller elides the Receive.
	p, dup = pendingUpsert(p, sv(5, 1, 11))
	if !dup {
		t.Fatal("exact repeat not reported as duplicate")
	}
	if !slices.Equal(p, want) {
		t.Fatalf("repeat mutated the signature: %v", p)
	}

	// A new incarnation of a known sender is a fresh entry value, not a
	// duplicate: same ID, same version counter value, different gen.
	p, dup = pendingUpsert(p, sv(5, 2, 11))
	if dup {
		t.Fatal("new incarnation reported as duplicate")
	}
	want[1] = sv(5, 2, 11)
	if !slices.Equal(p, want) {
		t.Fatalf("after incarnation bump: %v, want %v", p, want)
	}
}

// wakeRec builds a nodeRec in the armed, version-stable state where
// skipGate reaches the signature walk.
func wakeRec(pending, consumed []senderVer) *nodeRec {
	rec := &nodeRec{n: core.NewNode(1, core.Config{Dmax: 3})}
	rec.seeded = true
	rec.armed = true
	rec.quiet = core.QuietFixpoint
	rec.fixVer = rec.n.Version()
	rec.pending = pending
	rec.consumed = consumed
	return rec
}

func TestClassifyWakeOffenders(t *testing.T) {
	t.Run("gates before the signature", func(t *testing.T) {
		rec := wakeRec(nil, nil)
		rec.seeded = false
		if c, _ := skipGate(rec); c != introspect.WakeFresh {
			t.Fatalf("unseeded: %v", c)
		}
		rec = wakeRec(nil, nil)
		rec.armed = false
		if c, _ := skipGate(rec); c != introspect.WakeSelfActive {
			t.Fatalf("unarmed: %v", c)
		}
		rec = wakeRec(nil, nil)
		rec.fixVer++
		if c, _ := skipGate(rec); c != introspect.WakeVersionBump {
			t.Fatalf("version moved: %v", c)
		}
		rec = wakeRec(nil, nil)
		rec.quiet = core.QuietHeld
		rec.holdExp = rec.n.Computes() // horizon reached
		if c, _ := skipGate(rec); c != introspect.WakeHoldExpiry {
			t.Fatalf("hold expired: %v", c)
		}
	})

	t.Run("version-only churn names the first mover", func(t *testing.T) {
		rec := wakeRec(
			[]senderVer{sv(2, 1, 20), sv(5, 1, 11), sv(9, 1, 31)},
			[]senderVer{sv(2, 1, 20), sv(5, 1, 10), sv(9, 1, 30)},
		)
		c, who := skipGate(rec)
		if c != introspect.WakeMemoMiss || who != 5 {
			t.Fatalf("got (%v, %v), want (memo_miss, 5)", c, who)
		}
	})

	t.Run("incarnation swap is fresh traffic, not version churn", func(t *testing.T) {
		// Same sender set, same version values, one gen differs: a node
		// left and came back with a restarted counter. This must never
		// read as the memo-coverable shape.
		rec := wakeRec(
			[]senderVer{sv(2, 1, 20), sv(5, 2, 10)},
			[]senderVer{sv(2, 1, 20), sv(5, 1, 10)},
		)
		c, who := skipGate(rec)
		if c != introspect.WakeInboxNew || who != 5 {
			t.Fatalf("got (%v, %v), want (inbox_new, 5)", c, who)
		}
	})

	t.Run("lost sender names the first offender", func(t *testing.T) {
		rec := wakeRec(
			[]senderVer{sv(2, 1, 20), sv(9, 1, 30)},
			[]senderVer{sv(2, 1, 20), sv(5, 1, 10), sv(9, 1, 30)},
		)
		c, who := skipGate(rec)
		if c != introspect.WakeInboxLost || who != 5 {
			t.Fatalf("got (%v, %v), want (inbox_lost, 5)", c, who)
		}
		// Trailing loss: consumed has a suffix pending lacks.
		rec = wakeRec(
			[]senderVer{sv(2, 1, 20)},
			[]senderVer{sv(2, 1, 20), sv(9, 1, 30)},
		)
		c, who = skipGate(rec)
		if c != introspect.WakeInboxLost || who != 9 {
			t.Fatalf("got (%v, %v), want (inbox_lost, 9)", c, who)
		}
	})

	t.Run("new sender beats a later version move", func(t *testing.T) {
		// The set changed (3 is new) *and* 9's version moved. The walk
		// must report the set change, not misread the window as
		// version-only churn.
		rec := wakeRec(
			[]senderVer{sv(2, 1, 20), sv(3, 1, 40), sv(9, 1, 31)},
			[]senderVer{sv(2, 1, 20), sv(5, 1, 10), sv(9, 1, 30)},
		)
		c, who := skipGate(rec)
		if c != introspect.WakeInboxNew || who != 3 {
			t.Fatalf("got (%v, %v), want (inbox_new, 3)", c, who)
		}
	})

	t.Run("intact signature is a quiet replay", func(t *testing.T) {
		// WakeQuietReplay is the replay licence itself: exactly the equal
		// signatures get it, a nil one equalling an empty one.
		for _, sig := range [][2][]senderVer{
			{{sv(2, 1, 20)}, {sv(2, 1, 20)}},
			{{sv(2, 1, 20), sv(5, 1, 10)}, {sv(2, 1, 20), sv(5, 1, 10)}},
			{nil, {}},
			{{}, nil},
		} {
			c, who := skipGate(wakeRec(sig[0], sig[1]))
			if c != introspect.WakeQuietReplay || who != ident.None {
				t.Fatalf("%v vs %v: got (%v, %v), want (quiet_replay, none)", sig[0], sig[1], c, who)
			}
		}
	})

	t.Run("any signature difference withholds the replay", func(t *testing.T) {
		base := []senderVer{sv(2, 1, 20), sv(5, 1, 10)}
		for _, c := range []struct {
			name    string
			pending []senderVer
			want    introspect.WakeCause
			who     ident.NodeID
		}{
			{"empty", nil, introspect.WakeInboxLost, 2},
			{"shorter", []senderVer{sv(2, 1, 20)}, introspect.WakeInboxLost, 5},
			{"longer", []senderVer{sv(2, 1, 20), sv(5, 1, 10), sv(9, 1, 30)}, introspect.WakeInboxNew, 9},
			{"version moved", []senderVer{sv(2, 1, 21), sv(5, 1, 10)}, introspect.WakeMemoMiss, 2},
			{"incarnation moved", []senderVer{sv(2, 2, 20), sv(5, 1, 10)}, introspect.WakeInboxNew, 2},
			{"sender swapped", []senderVer{sv(3, 1, 20), sv(5, 1, 10)}, introspect.WakeInboxLost, 2},
			// A version move ahead of a set change is the first divergence:
			// plain fresh traffic from the mover, never version-only churn.
			{"version moved, then a sender lost", []senderVer{sv(2, 1, 21)}, introspect.WakeInboxNew, 2},
			{"version moved, then a sender swapped", []senderVer{sv(2, 1, 21), sv(7, 1, 10)}, introspect.WakeInboxNew, 2},
		} {
			got, who := skipGate(wakeRec(c.pending, base))
			if got != c.want || who != c.who {
				t.Errorf("%s: got (%v, %v), want (%v, %v)", c.name, got, who, c.want, c.who)
			}
		}
	})
}
