package engine

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/antlist"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/mobility"
	"repro/internal/shard"
	"repro/internal/space"
)

// TestSharedScratchMatchesPrivate drives one world twice — through the
// engine, whose nodes work in their shard's shared scratch, and through
// bare core nodes that each compute in a private one — and requires equal
// state digests node by node after every round.
func TestSharedScratchMatchesPrivate(t *testing.T) {
	topo := &StaticTopology{G: graph.Clusters(6, 5, 2, true)}
	e := New(Params{Cfg: core.Config{Dmax: 3}, Ts: 1, Tc: 1, Seed: 3, Workers: 4}, topo)
	ids := topo.G.Nodes()
	bare := make(map[ident.NodeID]*core.Node, len(ids))
	for _, v := range ids {
		bare[v] = core.NewNode(v, core.Config{Dmax: 3})
	}
	msgs := make([]core.Message, len(ids))
	for r := 1; r <= 60; r++ {
		if r == 30 { // a link cut mid-run: groups split and re-form
			u := ids[0]
			w := topo.G.NeighborsView(u)[0]
			topo.Edit(func(ref *graph.Ref) { ref.RemoveEdge(u, w) })
		}
		e.Step()
		for i, v := range ids {
			msgs[i] = bare[v].BuildMessage()
		}
		for i, v := range ids {
			for _, u := range topo.G.NeighborsView(v) {
				bare[u].ReceiveRef(&msgs[i])
			}
		}
		for _, v := range ids {
			bare[v].Compute()
		}
		for _, v := range ids {
			if got, want := e.Node(v).StateDigest(), bare[v].StateDigest(); got != want {
				t.Fatalf("round %d node %v: engine %s, bare %s", r, v, e.Node(v), bare[v])
			}
		}
	}
	if e.Node(ids[0]).Version() < 3 {
		t.Fatal("the world never moved — the comparison is vacuous")
	}
}

// parkedEngine is a settled mostly-parked spatial engine of n nodes at the
// soak's constant density.
func parkedEngine(n, rounds int) *Engine {
	ids := make([]ident.NodeID, n)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	side := 2.7 * math.Sqrt(float64(n))
	m := &mobility.Commuter{Side: side, SpeedMin: 0.5, SpeedMax: 2, Pause: 1, ActiveFraction: 0.02}
	topo := NewSpatialTopology(space.NewWorld(2.5), m, 0.2, ids, rand.New(rand.NewSource(5)))
	e := New(Params{Cfg: core.Config{Dmax: 3}, Seed: 5, Workers: 2}, topo)
	for r := 0; r < rounds; r++ {
		e.StepRound()
	}
	return e
}

// TestFootprint pins what one node costs the engine. nodeRec holds state
// only: a field added to it is paid n times for the whole run, so a growth
// of either number must name the state it buys — anything a compute needs
// only while it runs belongs in shardScratch, paid 64 times.
func TestFootprint(t *testing.T) {
	if got := unsafe.Sizeof(nodeRec{}); got != 504 {
		t.Errorf("sizeof(nodeRec) = %d, want 504 (of which the memo 256)", got)
	}
	const n = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := parkedEngine(n, 40)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if cap(e.recs) != n {
		t.Errorf("cap(recs) = %d for %d initial nodes — New must size the table once", cap(e.recs), n)
	}
	perNode := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("live heap per node: %d B", perNode)
	// Measured 3 565 B on amd64, 3 722 B while deliver kept a 40-byte
	// resolved entry per reception where it now keeps the 8-byte delivery.
	// Earlier, against 3 696 B: 3 568 B when the pools dropped storage one
	// compute period after it ripened, not poolLife; 3 897 B when every
	// inbox entry and every cached broadcast held a copy of the 96-byte
	// header, 5.5 KB when every node kept a private fold arena and work
	// buffers. Of it 0.19 KB is New's slabs of first-round headers, two a
	// node, alive while any header cut from them is. The budget is the
	// measurement plus 154 B.
	if budget := int64(3719); perNode > budget {
		t.Errorf("live heap per node = %d B, budget %d B", perNode, budget)
	}
	runtime.KeepAlive(e)
}

// TestRemoveNodeDropsBorrowedStorage pins that a departure leaves nothing
// reachable through the free slot: the last broadcast retires to its
// group's pool like a replaced one, and the pool clears it when it drops it
// unclaimed, so its records are collected (finalizer on the record slice)
// although the message itself, which New's slab may hold, is still
// referenced; nor the topology row, which aliases the adjacency slab of a
// whole graph; nor the node's place in New's slab, which outlives it.
func TestRemoveNodeDropsBorrowedStorage(t *testing.T) {
	e := parkedEngine(200, 10)
	var v ident.NodeID
	for _, u := range e.Order() {
		if rec := &e.recs[e.SlotOf(u)]; len(rec.row.IDs()) > 0 && len(rec.cm.m.Recs) > 0 {
			v = u
			break
		}
	}
	if v == ident.None {
		t.Fatal("no node with a cached row and broadcast — the check is vacuous")
	}
	slot, n, last := e.SlotOf(v), e.Node(v), e.recs[e.SlotOf(v)].cm.m
	freed := make(chan struct{})
	runtime.SetFinalizer(&last.Recs[0], func(*core.PrioRec) { close(freed) })
	e.RemoveNode(v)
	e.Topo.(*SpatialTopology).World.Remove(v)
	if rec := &e.recs[slot]; rec.row.IDs() != nil || rec.cm != unbuilt {
		t.Fatalf("free slot still holds row=%v broadcast=%v", rec.row.IDs(), *rec.cm.m)
	}
	if !offersMsg(&e.scratch[shard.Of(v)].pools.msgs, last) {
		t.Fatal("the departed node's broadcast did not retire to its pool")
	}
	if n.ID() != ident.None || n.List().Len() != 0 || n.PendingMessages() != 0 {
		t.Fatalf("New's slab still holds the departed node's state: %s", n)
	}
	for r := 0; r < 2+poolLife; r++ {
		e.StepRound() // v's neighbors consume it, and its pool drops it
	}
	if last.From != ident.None || last.Recs != nil {
		t.Fatalf("the departed broadcast, dropped by its pool, still reads %v", *last)
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(last)
			return
		case <-deadline:
			t.Fatal("departed node's records still reachable after RemoveNode")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// held counts what a pool still offers and its queue arrays.
func held[T any](p *pool[T]) (bufs, arrays int) {
	for _, f := range p.byCap {
		bufs += len(f.q) - f.head
		if f.q != nil {
			arrays++
		}
	}
	return bufs, arrays
}

// pooled sums held over every group: messages, entry buffers, arrays.
func pooled(e *Engine) (msgs, ents, arrays int) {
	for k := range e.pools {
		m, ma := held(&e.pools[k].msgs)
		n, na := held(&e.pools[k].ents)
		msgs, ents, arrays = msgs+m, ents+n, arrays+ma+na
	}
	return msgs, ents, arrays
}

// offers reports whether p still offers something is holds for.
func offers[T any](p *pool[T], is func(T) bool) bool {
	for _, f := range p.byCap {
		for _, r := range f.q[f.head:] {
			if is(r.v) {
				return true
			}
		}
	}
	return false
}

// offersMsg reports whether p offers m, or a message on m's records.
func offersMsg(p *pool[*core.Message], m *core.Message) bool {
	return offers(p, func(v *core.Message) bool { return v == m || &v.Recs[:1][0] == &m.Recs[:1][0] })
}

// offersEnts reports whether p offers the entries that start at at.
func offersEnts(p *pool[[]ident.Entry], at *ident.Entry) bool {
	return offers(p, func(v []ident.Entry) bool { return &v[:1][0] == at })
}

// TestPoolTakeWindow pins which retired storage a taker is handed: the
// smallest ripe capacity in need..need+6, once, and nothing smaller,
// roomier or retired later than ripe — for entry buffers and for messages,
// by the capacity of their records, alike.
func TestPoolTakeWindow(t *testing.T) {
	for _, c := range []struct {
		name       string
		caps       []int // retired in this order, at ticks 1, 2, …
		need, ripe int
		want       int // capacity handed out, 0 for none
	}{
		{"exact fit preferred", []int{9, 5, 7}, 5, 9, 5},
		{"need+6 taken", []int{11}, 5, 9, 11},
		{"need+7 not", []int{12}, 5, 9, 0},
		{"smaller never", []int{4}, 5, 9, 0},
		{"unripe skipped for a roomier ripe one", []int{7, 5}, 5, 1, 7},
		{"unripe only", []int{5}, 5, 0, 0},
	} {
		var ents pool[[]ident.Entry]
		var msgs pool[*core.Message]
		for i, n := range c.caps {
			ents.retire(make([]ident.Entry, 0, n), n, i+1)
			msgs.retire(&core.Message{Recs: make([]core.PrioRec, 0, n)}, n, i+1)
		}
		if got := cap(ents.take(c.need, c.ripe)); got != c.want {
			t.Errorf("%s: take(%d, ripe %d) of %v handed out capacity %d, want %d", c.name, c.need, c.ripe, c.caps, got, c.want)
		}
		got := 0
		if m := msgs.take(c.need, c.ripe); m != nil {
			got = cap(m.Recs)
		}
		if got != c.want {
			t.Errorf("%s: a message pool handed out records of capacity %d, want %d", c.name, got, c.want)
		}
	}
	var p pool[*core.Message]
	p.retire(&core.Message{Recs: make([]core.PrioRec, 0, 5)}, 5, 1)
	if a, b := p.take(5, 1), p.take(5, 1); a == nil || b != nil {
		t.Errorf("one retired message was handed out %v then %v, want once", a != nil, b != nil)
	}
	var z pool[*core.Message]
	if z.retire(new(core.Message), 0, 1); z.byCap != nil {
		t.Error("a message without records was pooled")
	}
}

// TestRetirementFollowsListIdentity pins the rule where BuildPhase decides
// it: a rebuild retires the replaced records always and the replaced list's
// entries only when the rebuilt broadcast's list is other storage; a removed
// node's last broadcast and list retire as if replaced; and what never was
// a cached broadcast of a member — a lie, a ghost frame of another process —
// enters no pool.
func TestRetirementFollowsListIdentity(t *testing.T) {
	r := graph.NewRef()
	for v := ident.NodeID(1); v <= 3; v++ {
		r.AddNode(v)
	}
	r.AddEdge(1, 2)
	topo := &StaticTopology{G: graph.FromRef(r)}
	e := New(Params{Cfg: core.Config{Dmax: 3}, Seed: 1}, topo)
	e.StepTicks(12 * e.P.Tc)
	// 1 and 2 have settled; 3 is alone, and its ticking clock moves its
	// broadcast every period but never its list.
	if msgs, ents, _ := pooled(e); msgs == 0 || ents != 0 {
		t.Fatalf("priority-only rebuilds left %d messages and %d entry buffers pooled, want some and none", msgs, ents)
	}

	forge := func(from ident.NodeID, far ...ident.NodeID) *core.Message {
		sets := []antlist.Set{antlist.NewSet(ident.Plain(from))}
		for _, u := range far {
			sets = append(sets, antlist.NewSet(ident.Plain(u)))
		}
		l := antlist.FromSets(sets...)
		return &core.Message{From: from, List: l, Recs: core.RecsFromMaps(l, nil, nil, nil)}
	}
	lie, ghost := forge(1, 2, 77), forge(9, 3)
	e.SetLie(1, lie)
	outside := []*core.Message{lie, ghost}
	moved := false
	for i := 0; i < 8*e.P.Tc; i++ {
		if i == 4*e.P.Tc { // 2 has folded the lie in by now
			last := e.recs[e.SlotOf(2)].cm.m
			e.RemoveNode(2)
			topo.Edit(func(r *graph.Ref) { r.RemoveNode(2) })
			if p := e.scratch[shard.Of(2)].pools; !offersMsg(&p.msgs, last) || !offersEnts(&p.ents, &last.List.Entries()[0]) {
				t.Fatalf("removed node 2's last broadcast %v did not retire with its list", *last)
			}
		}
		e.AdvancePhase()
		e.BuildPhase()
		e.FinishTick([]ExternalDelivery{{To: 3, From: 9, Gen: 1, Ver: 1, Msg: ghost}})
		for k := range e.pools {
			for _, m := range outside {
				if offersEnts(&e.pools[k].ents, &m.List.Entries()[0]) || offersMsg(&e.pools[k].msgs, m) {
					t.Fatalf("tick %d: group %d pools storage of %v, which no member's rebuild replaced", e.Tick(), k, m)
				}
			}
		}
		if _, ents, _ := pooled(e); ents > 0 && i < 4*e.P.Tc { // before 2 leaves, whose list retires then
			moved = true
		}
	}
	if !moved || e.Node(3).List().Len() < 2 {
		t.Fatalf("no moved list was retired (%v) or 3 never folded the ghost in (%v) — the check is vacuous", moved, e.Node(3))
	}
}

// poisonedEnts reports whether ents start with what PoisonEntries writes.
func poisonedEnts(ents []ident.Entry) bool {
	want := make([]ident.Entry, 1)
	core.PoisonEntries(want)
	return ents[:1][0] == want[0]
}

// poisonedMsg reports whether m's header and first record read as
// PoisonMessage leaves them.
func poisonedMsg(m *core.Message) bool {
	want := core.Message{Recs: make([]core.PrioRec, 1)}
	core.PoisonMessage(&want)
	return m.From == want.From && m.GroupPrio == want.GroupPrio && m.List.Len() == 0 && m.Recs[:1][0] == want.Recs[0]
}

// TestSetSelfCheckPoisonsRetiredBroadcasts pins the one oracle switch: with
// SetSelfCheck(true) called before the run, every group poisons a replaced
// broadcast, header and records, and its list's entries when the commit
// moved them, in the tick its pool may hand them out again (Tc after the
// replacement) and not a tick sooner — a node added mid-run included, which
// nobody arms by hand. With SetSelfCheck(false) nothing is poisoned.
func TestSetSelfCheckPoisonsRetiredBroadcasts(t *testing.T) {
	type retiredMsg struct {
		owner ident.NodeID
		tick  int
		msg   *core.Message
		ents  []ident.Entry // nil when the commit kept the list's storage
	}
	for _, armed := range []bool{true, false} {
		// The joiner shares its pools with node 40 alone (shards 40–43
		// are one group): alone in a group it would take each retired
		// broadcast of its own back in the very build it ripens, and with
		// more builders beside it none of its own would be left to check.
		const n, joiner = 40, ident.NodeID(41)
		on, off := pairRefs(n)
		p := Params{Cfg: core.Config{Dmax: 3}, Seed: 1, Jitter: true}
		p.normalize()
		blink := &blinkTopo{on: graph.FromRef(on), off: graph.FromRef(off), period: 2 * p.Tc}
		e := New(p, blink)
		e.SetSelfCheck(armed)
		last := map[ident.NodeID]cachedMsg{}
		var pending []retiredMsg
		var checked, joiners [2]int // messages, entries
		for e.tick < 40*p.Tc {
			if e.tick == 10*p.Tc { // it blinks with node 40: its list moves too
				off.AddNode(joiner)
				on.AddEdge(n, joiner)
				blink.on, blink.off = graph.FromRef(on), graph.FromRef(off)
				e.AddNode(joiner)
			}
			e.AdvancePhase()
			e.BuildPhase()
			for _, v := range e.Order() {
				cm := e.recs[e.SlotOf(v)].cm
				if prev, ok := last[v]; ok && prev.ver != cm.ver && prev.ver != ^uint64(0) {
					r := retiredMsg{owner: v, tick: e.tick, msg: prev.m}
					if was, now := prev.m.List.Entries(), cm.m.List.Entries(); cap(was) > 0 && (cap(now) == 0 || &was[:1][0] != &now[:1][0]) {
						r.ents = was
					}
					pending = append(pending, r)
				}
				last[v] = cm
			}
			kept := pending[:0]
			for _, r := range pending {
				sc := e.scratch[shard.Of(r.owner)].pools
				switch e.tick - r.tick {
				case p.Tc - 1: // receivers may still read it
					if r.msg.From != r.owner || poisonedMsg(r.msg) || r.ents != nil && poisonedEnts(r.ents) {
						t.Fatalf("armed=%v tick %d: %v's broadcast replaced at %d poisoned before it is takeable", armed, e.tick, r.owner, r.tick)
					}
				case p.Tc: // takeable since this tick's sweep, if nobody took it
					if offersMsg(&sc.msgs, r.msg) {
						if poisonedMsg(r.msg) != armed {
							t.Fatalf("armed=%v tick %d: %v's retired broadcast poisoned=%v", armed, e.tick, r.owner, !armed)
						}
						if checked[0]++; r.owner == joiner {
							joiners[0]++
						}
					}
					if r.ents != nil && offersEnts(&sc.ents, &r.ents[:1][0]) {
						if poisonedEnts(r.ents) != armed {
							t.Fatalf("armed=%v tick %d: %v's retired entries poisoned=%v", armed, e.tick, r.owner, !armed)
						}
						if checked[1]++; r.owner == joiner {
							joiners[1]++
						}
					}
				}
				if e.tick-r.tick < p.Tc {
					kept = append(kept, r)
				}
			}
			pending = kept
			e.FinishTick(nil)
		}
		if checked[0] == 0 || checked[1] == 0 || joiners[0] == 0 || joiners[1] == 0 {
			t.Fatalf("armed=%v: checked %v retired broadcasts and entry buffers, %v of the joiner's — the check is vacuous", armed, checked, joiners)
		}
	}
}

// inbox reads n's message buffer, which core keeps to itself: no driver
// needs to see it, and this test needs only that.
func inbox(n *core.Node) []*core.Message {
	f := reflect.ValueOf(n).Elem().FieldByName("msgSet")
	return *(*[]*core.Message)(unsafe.Pointer(f.UnsafeAddr()))
}

// TestInboxAliasesBroadcast pins what the Tc hold proves, on jittered
// timers, where receivers outlive their senders' rebuilds: a receiver
// buffers the very message BroadcastOf served its sender at delivery, and
// that message — From, GroupPrio, records, list — reads as delivered until
// the receiver's next compute, also when the sender rebuilt in between.
// Armed, with the hold of replaced broadcasts forced to 0 (the entries
// keep Tc), a buffered header is rewritten under its receiver, whether or
// not an oracle then panics: the check sees a header recycled early without
// the poison's help.
func TestInboxAliasesBroadcast(t *testing.T) {
	run := func(hold int) (delivered, outlived, broken, headers int, panicked any) {
		defer func() { panicked = recover() }()
		const n = 300
		ids := make([]ident.NodeID, n)
		for i := range ids {
			ids[i] = ident.NodeID(i + 1)
		}
		side := 2.7 * math.Sqrt(n)
		m := &mobility.Waypoint{Side: side, SpeedMin: 0.5, SpeedMax: 2, Pause: 1}
		topo := NewSpatialTopology(space.NewWorld(2.5), m, 0.2, ids, rand.New(rand.NewSource(7)))
		e := New(Params{Cfg: core.Config{Dmax: 3}, Tc: 4, Seed: 7, Jitter: true}, topo) // inline, so an oracle's panic is recovered here
		e.SetSelfCheck(true)
		if hold >= 0 {
			e.SetRecsHold(hold, e.P.Tc)
		}
		type edge struct{ to, from ident.NodeID }
		type held struct {
			msg      *core.Message
			snap     core.Message // a deep copy taken at delivery
			computes uint64       // the receiver's, at delivery
			outlived bool
		}
		tracked := map[edge]*held{}
		var sent []edge
		for e.Tick() < 30*e.P.Tc {
			e.AdvancePhase()
			txs := e.BuildPhase()
			// This build is the last write before this tick's computes: what a
			// receiver has not consumed yet must read as it was delivered.
			for d, h := range tracked {
				if e.Node(d.to).Computes() != h.computes {
					delete(tracked, d)
					continue
				}
				header := h.msg.From != h.snap.From || h.msg.GroupPrio != h.snap.GroupPrio
				if header || !slices.Equal(h.msg.Recs, h.snap.Recs) || !h.msg.List.Equal(h.snap.List) {
					if broken++; header {
						headers++
					}
					delete(tracked, d)
					continue
				}
				if cur, _, _, _ := e.BroadcastOf(d.from); cur != h.msg && !h.outlived {
					h.outlived = true
					outlived++
				}
			}
			sent = sent[:0]
			for _, tx := range txs {
				msg, _, _, _ := e.BroadcastOf(tx.Sender)
				snap := core.Message{From: msg.From, GroupPrio: msg.GroupPrio, List: msg.List.Clone(), Recs: slices.Clone(msg.Recs)}
				for _, u := range tx.Receivers {
					d := edge{u, tx.Sender}
					tracked[d] = &held{msg: msg, snap: snap, computes: e.Node(u).Computes()}
					sent = append(sent, d)
				}
			}
			e.FinishTick(nil)
			for _, d := range sent {
				h := tracked[d]
				if e.Node(d.to).Computes() != h.computes {
					delete(tracked, d) // consumed in the tick it was delivered
					continue
				}
				buf := inbox(e.Node(d.to))
				if i := slices.IndexFunc(buf, func(b *core.Message) bool { return b.From == d.from }); i < 0 || buf[i] != h.msg {
					t.Fatalf("tick %d: %v does not buffer the message BroadcastOf served for %v", e.Tick(), d.to, d.from)
				}
				delivered++
			}
		}
		return delivered, outlived, broken, headers, nil
	}
	delivered, outlived, broken, _, p := run(-1)
	t.Logf("hold Tc: %d buffered deliveries followed, %d outlived their sender's broadcast", delivered, outlived)
	if p != nil || broken != 0 {
		t.Fatalf("hold Tc: %d buffered messages rewritten before their receiver computed (panic: %v)", broken, p)
	}
	if outlived == 0 {
		t.Fatal("no receiver outlived its sender's rebuild — the check is vacuous")
	}
	_, _, broken, headers, p := run(0)
	t.Logf("hold 0: %d buffered messages rewritten, %d of them in the header (panic: %v)", broken, headers, p)
	if headers == 0 {
		t.Fatal("hold 0 went unnoticed: no buffered header was rewritten under its receiver")
	}
}

// TestRecsPoolDrains pins both pools' bound: each holds what was retired in
// the last (1+poolLife)·Tc ticks and nothing else — after the whole-world
// rebuild storm of a converging start, that long without a rebuild leaves
// no message and no buffer behind, and poolLife·Tc empty sweeps more no
// queue array.
func TestRecsPoolDrains(t *testing.T) {
	r := graph.NewRef()
	for v := ident.NodeID(1); v <= 400; v++ { // 80 lines of 5: each merges into one group
		if r.AddNode(v); v%5 != 1 {
			r.AddEdge(v-1, v)
		}
	}
	e := NewStatic(Params{Cfg: core.Config{Dmax: 4}, Seed: 2, Workers: 2}, graph.FromRef(r))
	e.StepTicks(3 * e.P.Tc)
	if msgs, ents, _ := pooled(e); msgs == 0 || ents == 0 {
		t.Fatalf("a converging world holds %d retired messages and %d retired lists — the check is vacuous", msgs, ents)
	}
	builds := func() uint64 { return e.Introspect().Get(introspect.CtrMsgBuilds) }
	drain := (1 + 2*poolLife) * e.P.Tc
	for quiet, last := 0, builds(); quiet < drain; {
		if e.Step(); builds() != last {
			quiet, last = 0, builds()
		} else {
			quiet++
		}
		if e.Tick() > 4000 {
			t.Fatal("the world never settled")
		}
	}
	if msgs, ents, arrays := pooled(e); msgs != 0 || ents != 0 || arrays != 0 {
		t.Fatalf("after %d quiet ticks the pools hold %d messages and %d entry buffers in %d queue arrays", drain, msgs, ents, arrays)
	}
}

// TestSteadyRebuildsAllocateNothing drives isolated nodes, whose ticking
// lonely clocks move every broadcast once a compute period: after warm-up
// each rebuild is assembled into a message, header and records, the same
// group retired a period earlier, and no allocation scales with the
// rebuilds.
func TestSteadyRebuildsAllocateNothing(t *testing.T) {
	_, off := pairRefs(300)
	e := NewStatic(Params{Cfg: core.Config{Dmax: 3}, Seed: 1, Jitter: true}, graph.FromRef(off))
	e.StepTicks(3 * e.P.Tc)
	before := e.Introspect().Get(introspect.CtrMsgBuilds)
	step := testing.AllocsPerRun(10*e.P.Tc, e.Step)
	if got := e.Introspect().Get(introspect.CtrMsgBuilds) - before; got < 300*10 {
		t.Fatalf("%d rebuilds in 10 periods of 300 lonely nodes — the check is vacuous", got)
	}
	if step > 3 { // the closures the three fanned-out phases hand to shard.Run
		t.Errorf("a tick allocates %.2f times in steady state, want the 3 phase closures", step)
	}
}

// blinkTopo links its nodes in pairs for one tick of every period.
type blinkTopo struct {
	on, off *graph.G
	period  int
	tick    int
}

func (b *blinkTopo) Advance(*rand.Rand) { b.tick++ }
func (b *blinkTopo) Graph() *graph.G {
	if b.tick%b.period == 0 {
		return b.on
	}
	return b.off
}
func (b *blinkTopo) Nodes() []ident.NodeID { return b.on.Nodes() }

// pairRefs returns nodes 1..n linked in pairs (on) and the same nodes
// isolated (off), the two graphs a blinkTopo alternates.
func pairRefs(n ident.NodeID) (on, off *graph.Ref) {
	on, off = graph.NewRef(), graph.NewRef()
	for v := ident.NodeID(1); v <= n; v++ {
		on.AddNode(v)
		off.AddNode(v)
		if v%2 == 0 {
			on.AddEdge(v-1, v)
		}
	}
	return on, off
}

// TestSteadyCommitsAllocateNothing drives pairs that hear each other in one
// tick of every blink period, on jittered timers: the compute after a blink
// moves its node's list from (v) to (v, {u'}) and the next one moves it
// back, and after warm-up each commit is published into entries its group
// retired up to a blink period earlier, over offsets interned once — no
// allocation scales with the commits. At 2·Tc every compute commits; at
// 4·Tc the entries wait three compute periods for their next taker, which
// a pool that dropped them one period after they ripened would miss.
func TestSteadyCommitsAllocateNothing(t *testing.T) {
	const n = 300
	p := Params{Cfg: core.Config{Dmax: 3}, Seed: 1, Jitter: true}
	p.normalize()
	for _, periods := range []int{2, 4} {
		on, off := pairRefs(n)
		blink := periods * p.Tc
		e := New(p, &blinkTopo{on: graph.FromRef(on), off: graph.FromRef(off), period: blink})
		e.StepTicks(4 * blink)
		reg := e.Introspect()
		misses := func() uint64 { return reg.Get(introspect.CtrMsgPoolMisses) + reg.Get(introspect.CtrEntsPoolMisses) }
		before, missed := reg.Get(introspect.CtrMsgBuilds), misses()
		step := testing.AllocsPerRun(10*p.Tc, e.Step)
		// A lonely clock rebuilds every broadcast once a compute period.
		if got := reg.Get(introspect.CtrMsgBuilds) - before; got < n*10 {
			t.Fatalf("blink %d·Tc: %d rebuilds in 10 periods of %d blinking nodes — the check is vacuous", periods, got, n)
		}
		if missed < n || misses() != missed {
			t.Errorf("blink %d·Tc: the pools missed %d times warming up and %d times after, want ≥ %d and none", periods, missed, misses()-missed, n)
		}
		lens := map[int]bool{}
		for i := 0; i < blink; i++ {
			e.Step()
			lens[e.Node(1).List().Len()] = true
		}
		if !lens[1] || !lens[2] || len(lens) != 2 {
			t.Fatalf("blink %d·Tc: node 1's list took lengths %v over a blink period, want (1) and (1,{2'})", periods, lens)
		}
		if step > 3 {
			t.Errorf("blink %d·Tc: a tick allocates %.2f times in steady state, want the 3 phase closures", periods, step)
		}
	}
}

// noNodes hides a topology's population from New: every node then joins
// through AddNode, allocating on its own.
type noNodes struct{ *StaticTopology }

func (noNodes) Nodes() []ident.NodeID { return nil }

// TestBootCutsAreClamped is core.TestNewNodesCarvesAreClamped's twin for
// the cuts New hands out: receiver sets, both inbox signatures and the
// inboxes are cut by the first graph's degrees, and when chords then
// double every node's degree, each grows out of its shard's arena into
// storage of its own. The engine stays equal, digest by digest and
// counter by counter, to one whose nodes joined one AddNode at a time;
// under -race a cut shared across shards is a report, not a divergence.
func TestBootCutsAreClamped(t *testing.T) {
	const n = 300
	p := Params{Cfg: core.Config{Dmax: 3}, Seed: 3, Workers: 4}
	topos := [2]*StaticTopology{{G: graph.Ring(n)}, {G: graph.Ring(n)}}
	bulk := New(p, topos[0])
	joined := New(p, noNodes{topos[1]})
	for _, v := range topos[1].G.Nodes() {
		joined.AddNode(v)
	}
	for i := range bulk.recs {
		rec := &bulk.recs[i]
		for name, c := range map[string]int{"recv": cap(rec.recv), "pending": cap(rec.pending), "consumed": cap(rec.consumed)} {
			if c != 2 {
				t.Fatalf("node %v: cap(%s) = %d on a ring, want 2", rec.id, name, c)
			}
		}
	}
	for r := 0; r < 12; r++ {
		if r == 2 {
			for _, topo := range topos {
				topo.Edit(func(r *graph.Ref) {
					for v := 1; v <= n; v++ {
						r.AddEdge(ident.NodeID(v), ident.NodeID((v+6)%n+1))
					}
				})
			}
		}
		bulk.StepRound()
		joined.StepRound()
		for i := range bulk.recs {
			a, b := &bulk.recs[i], &joined.recs[i]
			if a.n.StateDigest() != b.n.StateDigest() || len(a.pending) != len(b.pending) || len(a.recv) != len(b.recv) {
				t.Fatalf("round %d: bulk-built %s (recv %v), joined %s (recv %v)", r, a.n, a.recv, b.n, b.recv)
			}
		}
		if a, b := bulk.reg.Snapshot().Counters, joined.reg.Snapshot().Counters; !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: counters diverged:\nbulk   %v\njoined %v", r, a, b)
		}
	}
	if rec := &bulk.recs[0]; cap(rec.recv) < 4 || cap(rec.consumed) < 4 {
		t.Fatalf("node %v never outgrew its cuts: recv %v, consumed %v", rec.id, rec.recv, rec.consumed)
	}
}
