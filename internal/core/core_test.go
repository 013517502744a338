package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/antlist"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/priority"
)

// ring is a tiny synchronous driver for unit tests: every round each node
// broadcasts to its neighbors in g, then every node computes. The real
// driver lives in internal/engine.
type ring struct {
	g     *graph.G
	nodes map[ident.NodeID]*Node
}

func newRing(g *graph.G, cfg Config) *ring {
	r := &ring{g: g, nodes: make(map[ident.NodeID]*Node)}
	for _, v := range g.Nodes() {
		r.nodes[v] = NewNode(v, cfg)
	}
	return r
}

func (r *ring) round() {
	msgs := make(map[ident.NodeID]Message, len(r.nodes))
	for v, n := range r.nodes {
		msgs[v] = n.BuildMessage()
	}
	for v, n := range r.nodes {
		for _, u := range r.g.Neighbors(v) {
			n.Receive(msgs[u])
		}
	}
	for _, n := range r.nodes {
		n.Compute()
	}
}

func (r *ring) rounds(k int) {
	for i := 0; i < k; i++ {
		r.round()
	}
}

func (r *ring) view(v ident.NodeID) []ident.NodeID { return r.nodes[v].View() }

func viewEq(got []ident.NodeID, want ...ident.NodeID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// compatibleAll reports whether the full foreign depth of lu is foldable
// (the old boolean reading of the test): safePrefix covers everything.
func compatibleAll(n *Node, partial, lu antlist.List) bool {
	q := 0
	for i := 0; i < lu.Len(); i++ {
		for _, e := range lu.At(i) {
			if !e.Mark.Marked() && e.ID != n.id && !n.InView(e.ID) {
				q = i
				break
			}
		}
	}
	qsafe, ok := n.safePrefix(lu.Owner(), partial, lu)
	return ok && qsafe >= q
}

func TestNewNodeInitialState(t *testing.T) {
	n := NewNode(7, Config{Dmax: 3})
	if !viewEq(n.View(), 7) {
		t.Fatalf("initial view = %v", n.View())
	}
	if n.List().Owner() != 7 || n.List().Len() != 1 {
		t.Fatalf("initial list = %v", n.List())
	}
	if n.Priority() != priority.New(7) || n.GroupPriority() != priority.New(7) {
		t.Fatal("initial priority wrong")
	}
	if n.QuarantineOf(7) != 0 || n.QuarantineOf(9) != -1 {
		t.Fatal("initial quarantine wrong")
	}
}

func TestNewNodePanicsOnBadDmax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNode(1, Config{Dmax: 0})
}

func TestReceiveIgnoresSelfAndKeepsLast(t *testing.T) {
	n := NewNode(1, Config{Dmax: 3})
	n.Receive(Message{From: 1, List: antlist.Singleton(ident.Plain(1))})
	if n.PendingMessages() != 0 {
		t.Fatal("self message buffered")
	}
	n.Receive(Message{From: 2, List: antlist.Singleton(ident.Plain(2))})
	n.Receive(Message{From: 2, List: antlist.Singleton(ident.Plain(2))})
	if n.PendingMessages() != 1 {
		t.Fatal("one-message channel violated")
	}
}

// TestReceiveCopiesReceiveRefAliases pins the two stores: Receive buffers a
// copy, so writing the caller's value afterwards reaches nothing; ReceiveRef
// buffers the message itself, in place of the sender's previous one.
func TestReceiveCopiesReceiveRefAliases(t *testing.T) {
	n := NewNode(1, Config{Dmax: 3})
	m := Message{From: 2, List: antlist.Singleton(ident.Plain(2)), GroupPrio: priority.New(2)}
	n.Receive(m)
	m.From, m.GroupPrio = 3, priority.New(3)
	if len(n.msgSet) != 1 || n.msgSet[0].From != 2 || n.msgSet[0].GroupPrio != priority.New(2) {
		t.Fatalf("a write to the received value reached the inbox: %+v", *n.msgSet[0])
	}
	first, last := &Message{From: 3}, &Message{From: 3, GroupPrio: priority.New(3)}
	n.ReceiveRef(first)
	n.ReceiveRef(&Message{From: 4})
	n.ReceiveRef(last)
	if len(n.msgSet) != 3 || n.msgSet[1] != last || n.msgSet[0].From != 2 {
		t.Fatalf("ReceiveRef of 3 twice buffered %v, want the last pointer in the first one's place", n.msgSet)
	}
}

func TestTripleHandshakeTwoNodes(t *testing.T) {
	r := newRing(graph.Line(2), Config{Dmax: 3})
	// Round 1: each sees the other's bare singleton → single mark.
	r.round()
	if viewEq(r.view(1), 1, 2) {
		t.Fatal("view must not include unconfirmed neighbor")
	}
	// The handshake completes and the quarantine (Dmax=3) runs out.
	r.rounds(1 + 3)
	if !viewEq(r.view(1), 1, 2) || !viewEq(r.view(2), 1, 2) {
		t.Fatalf("views after handshake: %v %v", r.view(1), r.view(2))
	}
}

func TestPairConvergesWithDmax1(t *testing.T) {
	r := newRing(graph.Line(2), Config{Dmax: 1})
	r.rounds(10)
	if !viewEq(r.view(1), 1, 2) || !viewEq(r.view(2), 1, 2) {
		t.Fatalf("Dmax=1 pair: %v %v", r.view(1), r.view(2))
	}
}

func TestLineOfThreeDmax1RespectsSafety(t *testing.T) {
	// A 3-line with Dmax=1 cannot be one group (diameter 2). One pair
	// forms; the remaining node stays out of at least one view.
	r := newRing(graph.Line(3), Config{Dmax: 1})
	r.rounds(20)
	for v, n := range r.nodes {
		vw := n.ViewSet()
		if len(vw) > 2 {
			t.Fatalf("node %v view too large: %v", v, n.View())
		}
		if graph.RefOf(r.g).InducedDiameter(vw) > 1 {
			t.Fatalf("node %v view diameter > 1: %v", v, n.View())
		}
	}
}

func TestTwoPairsMergeAtDmax3(t *testing.T) {
	// 1-2-3-4 line, Dmax=3: the whole line is one legal group and the
	// protocol must converge to it (maximality).
	r := newRing(graph.Line(4), Config{Dmax: 3})
	r.rounds(30)
	for v := range r.nodes {
		if !viewEq(r.view(v), 1, 2, 3, 4) {
			t.Fatalf("node %v view = %v, want full line", v, r.view(v))
		}
	}
}

func TestTwoPairsStaySplitAtDmax2(t *testing.T) {
	// 1-2-3-4 line, Dmax=2: a single group would have diameter 3. Safety
	// must hold; groups must be maximal (two pairs or a triple+single).
	r := newRing(graph.Line(4), Config{Dmax: 2})
	r.rounds(40)
	for v, n := range r.nodes {
		vw := n.ViewSet()
		if d := graph.RefOf(r.g).InducedDiameter(vw); d > 2 {
			t.Fatalf("node %v group diameter %d: %v", v, d, n.View())
		}
	}
	// Agreement: views of members must match.
	for v, n := range r.nodes {
		for u := range n.ViewSet() {
			if !reflect.DeepEqual(r.nodes[u].View(), n.View()) {
				t.Fatalf("views disagree: %v=%v %v=%v", v, n.View(), u, r.nodes[u].View())
			}
		}
	}
}

func TestLineConvergesAtExactDiameter(t *testing.T) {
	// 5-line with Dmax=4: exactly one group.
	r := newRing(graph.Line(5), Config{Dmax: 4})
	r.rounds(40)
	if !viewEq(r.view(3), 1, 2, 3, 4, 5) {
		t.Fatalf("center view = %v", r.view(3))
	}
}

func TestQuarantineDelaysViewAdmission(t *testing.T) {
	cfg := Config{Dmax: 4}
	r := newRing(graph.Line(2), cfg)
	// After round 2 the handshake is complete (plain entries both sides).
	r.rounds(2)
	if viewEq(r.view(1), 1, 2) {
		t.Fatal("neighbor admitted before quarantine expiry")
	}
	q := r.nodes[1].QuarantineOf(2)
	if q <= 0 || q > 4 {
		t.Fatalf("quarantine of newcomer = %d", q)
	}
	r.rounds(4)
	if !viewEq(r.view(1), 1, 2) {
		t.Fatalf("neighbor still quarantined: %v", r.view(1))
	}
}

func TestDisableQuarantineAdmitsImmediately(t *testing.T) {
	r := newRing(graph.Line(2), Config{Dmax: 4, DisableQuarantine: true})
	r.rounds(2)
	if !viewEq(r.view(1), 1, 2) {
		t.Fatalf("view = %v, want immediate admission", r.view(1))
	}
}

func TestDepartureDetection(t *testing.T) {
	r := newRing(graph.Line(2), Config{Dmax: 2})
	r.rounds(10)
	if !viewEq(r.view(1), 1, 2) {
		t.Fatalf("precondition: %v", r.view(1))
	}
	// Node 2 goes silent: one compute with no message from it and it is
	// gone from node 1's list and view.
	r.nodes[1].Compute()
	if !viewEq(r.view(1), 1) {
		t.Fatalf("departed neighbor still in view: %v", r.view(1))
	}
}

func TestPriorityTicksOnlyWhenAlone(t *testing.T) {
	r := newRing(graph.Line(2), Config{Dmax: 2})
	n1 := r.nodes[1]
	c0 := n1.Priority().Clock
	r.round()
	if n1.Priority().Clock <= c0 {
		t.Fatal("lone node's clock must tick")
	}
	r.rounds(10) // now grouped
	c1 := n1.Priority().Clock
	r.rounds(5)
	if n1.Priority().Clock != c1 {
		t.Fatal("grouped node's clock must freeze")
	}
	if got := n1.GroupPriority(); !got.Less(priority.Infinite) {
		t.Fatalf("group priority = %v", got)
	}
}

func TestLamportJumpOnJoin(t *testing.T) {
	// A node that boots late next to an old, still-lonely node must end up
	// with a *worse* (larger) clock than what it heard.
	old := NewNode(1, Config{Dmax: 2})
	for i := 0; i < 20; i++ {
		old.Compute() // ticks alone: clock grows
	}
	fresh := NewNode(2, Config{Dmax: 2})
	fresh.Receive(old.BuildMessage())
	fresh.Compute()
	if fresh.Priority().Clock <= old.Priority().Clock-1 {
		t.Fatalf("fresh clock %d did not jump past heard clock %d",
			fresh.Priority().Clock, old.Priority().Clock)
	}
}

func TestGoodListRejects(t *testing.T) {
	n := NewNode(1, Config{Dmax: 2})
	mk := func(l antlist.List) bool { return n.goodList(2, l) }
	// Bare singleton: no position 1.
	if mk(antlist.Singleton(ident.Plain(2))) {
		t.Fatal("singleton must not be good")
	}
	// Good: receiver plain at position 1.
	good := antlist.FromSets(antlist.NewSet(ident.Plain(2)), antlist.NewSet(ident.Plain(1)))
	if !mk(good) {
		t.Fatal("good list rejected")
	}
	// Good: receiver single-marked at position 1 (handshake signal).
	goodMarked := antlist.FromSets(antlist.NewSet(ident.Plain(2)), antlist.NewSet(ident.Single(1)))
	if !mk(goodMarked) {
		t.Fatal("single-marked self must count")
	}
	// Receiver absent from position 1.
	bad := antlist.FromSets(antlist.NewSet(ident.Plain(2)), antlist.NewSet(ident.Plain(3)))
	if mk(bad) {
		t.Fatal("list without receiver accepted")
	}
	// Too long: Dmax+2 positions.
	long := antlist.FromSets(
		antlist.NewSet(ident.Plain(2)), antlist.NewSet(ident.Plain(1)),
		antlist.NewSet(ident.Plain(3)), antlist.NewSet(ident.Plain(4)),
	)
	if mk(long) {
		t.Fatal("too-long list accepted")
	}
	// Empty set inside.
	holed := antlist.FromSets(antlist.NewSet(ident.Plain(2)), antlist.NewSet(ident.Plain(1)), antlist.Set{}, antlist.NewSet(ident.Plain(4)))
	if mk(holed) {
		t.Fatal("list with empty set accepted")
	}
	// Wrong owner.
	wrongOwner := antlist.FromSets(antlist.NewSet(ident.Plain(9)), antlist.NewSet(ident.Plain(1)))
	if mk(wrongOwner) {
		t.Fatal("list owned by someone else accepted")
	}
}

func TestDoubleMarkedSelfIsRejectedOnReception(t *testing.T) {
	// Sender 2 double-marked us (incompatible): after line 2 deletion we
	// must not find ourselves in the list → not good → symmetric
	// ignorance (Proposition 3).
	n := NewNode(1, Config{Dmax: 3})
	l := antlist.FromSets(antlist.NewSet(ident.Plain(2)), antlist.NewSet(ident.Double(1), ident.Plain(3)))
	cleaned := n.cleanReceived(&n.scratch().bld, l)
	if cleaned.Has(1) {
		t.Fatal("double-marked self must be deleted")
	}
	if n.goodList(2, cleaned) {
		t.Fatal("list from a rejecting sender must not be good")
	}
}

func TestCompatibleMarkedEntriesDoNotInflate(t *testing.T) {
	// Two fresh singletons with mutual single marks, Dmax=1: marked
	// handshake entries must not count toward p/q, so the pair merges.
	n := NewNode(2, Config{Dmax: 1})
	n.LoadState(
		antlist.FromSets(antlist.NewSet(ident.Plain(2)), antlist.NewSet(ident.Single(1))),
		nil, nil, priority.New(2))
	lu := antlist.FromSets(antlist.NewSet(ident.Plain(1)), antlist.NewSet(ident.Single(2)))
	if !compatibleAll(n, antlist.Singleton(ident.Plain(n.ID())), lu) {
		t.Fatal("handshake marks must not block a Dmax=1 pair")
	}
}

func TestCompatibleOwnMembersEchoedBackDoNotInflate(t *testing.T) {
	// Node 2 in group {1,2} (Dmax=3) hears node 3 of group {3,4} whose
	// list echoes 1 and 2 back: the echo must not count toward q.
	n := NewNode(2, Config{Dmax: 3})
	n.LoadState(
		antlist.FromSets(antlist.NewSet(ident.Plain(2)), antlist.NewSet(ident.Plain(1))),
		map[ident.NodeID]bool{1: true, 2: true}, nil, priority.New(2))
	lu := antlist.FromSets(
		antlist.NewSet(ident.Plain(3)),
		antlist.NewSet(ident.Plain(2), ident.Plain(4)),
		antlist.NewSet(ident.Plain(1)),
	)
	if !compatibleAll(n, antlist.Singleton(ident.Plain(n.ID())), lu) {
		t.Fatal("echoed own members must not block the 2+2 merge at Dmax=3")
	}
}

func TestCompatibleRejectsOversizedMerge(t *testing.T) {
	// Group {1,2} hearing group {3,4,5} (a 3-deep list) at Dmax=3:
	// merged line diameter would be 4 → incompatible.
	n := NewNode(2, Config{Dmax: 3})
	n.LoadState(
		antlist.FromSets(antlist.NewSet(ident.Plain(2)), antlist.NewSet(ident.Plain(1))),
		map[ident.NodeID]bool{1: true, 2: true}, nil, priority.New(2))
	lu := antlist.FromSets(
		antlist.NewSet(ident.Plain(3)),
		antlist.NewSet(ident.Plain(2), ident.Plain(4)),
		antlist.NewSet(ident.Plain(5)),
	)
	if compatibleAll(n, antlist.Singleton(ident.Plain(n.ID())), lu) {
		t.Fatal("oversized merge accepted")
	}
}

func TestCompatibleShortcutAcceptsViaLevelI(t *testing.T) {
	// Own group 3 deep (view members at positions 1..3), sender's foreign
	// content 2 deep (q=2), Dmax=4. Naive i=0: worst member distance
	// p+1+q = 6 > 4 → reject. With every node of a_v^2 a neighbor of the
	// sender (i=2): worst = max_k min(k,|k-2|) = 1, 1+1+2 = 4 ≤ 4 →
	// compatible.
	own := antlist.FromSets(
		antlist.NewSet(ident.Plain(1)),
		antlist.NewSet(ident.Plain(2)),
		antlist.NewSet(ident.Plain(3)),
		antlist.NewSet(ident.Plain(4)),
	)
	view := map[ident.NodeID]bool{1: true, 2: true, 3: true, 4: true}
	lu := antlist.FromSets(
		antlist.NewSet(ident.Plain(9)),
		antlist.NewSet(ident.Plain(1), ident.Plain(3)), // neighbor of v and of a_v^2={3}
		antlist.NewSet(ident.Plain(8)),
	)
	full := NewNode(1, Config{Dmax: 4})
	full.LoadState(own, view, nil, priority.New(1))
	if !compatibleAll(full, antlist.Singleton(ident.Plain(full.ID())), lu) {
		t.Fatal("shortcut case must be compatible in CompatFull")
	}
	naive := NewNode(1, Config{Dmax: 4, Compat: CompatNaiveSum})
	naive.LoadState(own, view, nil, priority.New(1))
	if compatibleAll(naive, antlist.Singleton(ident.Plain(naive.ID())), lu) {
		t.Fatal("naive mode must reject what only the shortcut allows")
	}
}

func TestCompatibleLoneNodeAcceptsAnything(t *testing.T) {
	// A node with no members behind it accepts any good list: overshoots
	// land at the node itself and the too-far contest resolves them.
	n := NewNode(1, Config{Dmax: 1})
	lu := antlist.FromSets(
		antlist.NewSet(ident.Plain(2)),
		antlist.NewSet(ident.Plain(1), ident.Plain(3)),
	)
	if !compatibleAll(n, antlist.Singleton(ident.Plain(n.ID())), lu) {
		t.Fatal("lone node must accept and let the contest arbitrate")
	}
}

func TestBuildMessageCarriesPriorities(t *testing.T) {
	r := newRing(graph.Line(2), Config{Dmax: 2})
	r.rounds(6)
	m := r.nodes[1].BuildMessage()
	if m.From != 1 || !m.List.Has(2) {
		t.Fatalf("message = %+v", m)
	}
	if r, ok := m.Rec(1); !ok || !r.HasPrio {
		t.Fatal("message must carry own priority")
	}
	if r, ok := m.Rec(2); !ok || !r.HasPrio {
		t.Fatal("message must carry neighbor priority")
	}
	if m.GroupPrio.IsInfinite() {
		t.Fatal("group priority missing")
	}
	if m.EncodedSize() <= 0 {
		t.Fatal("encoded size must be positive")
	}
}

func TestLoadStateDefaults(t *testing.T) {
	n := NewNode(1, Config{Dmax: 2})
	l := antlist.FromSets(antlist.NewSet(ident.Plain(1)), antlist.NewSet(ident.Plain(9)))
	n.LoadState(l, nil, nil, priority.P{Clock: 5, ID: 1})
	if !n.List().Equal(l) || !n.InView(1) || n.QuarantineOf(9) != 0 {
		t.Fatalf("LoadState defaults wrong: %v", n)
	}
	if n.Priority().Clock != 5 {
		t.Fatal("priority not loaded")
	}
}

func TestSelfAlwaysPlainAtPositionZero(t *testing.T) {
	r := newRing(graph.Ring(6), Config{Dmax: 3})
	for i := 0; i < 25; i++ {
		r.round()
		for v, n := range r.nodes {
			l := n.List()
			if l.Owner() != v {
				t.Fatalf("node %v list owner %v", v, l.Owner())
			}
			if e, ok := l.At(0).Get(v); !ok || e.Mark.Marked() {
				t.Fatalf("node %v not plain at position 0: %v", v, l)
			}
			if l.Len() > 3+1 {
				t.Fatalf("node %v list too long: %v", v, l)
			}
		}
	}
}

func TestViewSubsetOfPlainList(t *testing.T) {
	r := newRing(graph.Grid(3, 3), Config{Dmax: 4})
	for i := 0; i < 25; i++ {
		r.round()
		for v, n := range r.nodes {
			l := n.List()
			for u := range n.ViewSet() {
				pos, e := l.Position(u)
				if pos < 0 || e.Mark.Marked() {
					t.Fatalf("node %v: view member %v not plain in list %v", v, u, l)
				}
			}
		}
	}
}

func TestGhostNodeVanishes(t *testing.T) {
	// Corrupt node 1 with a list naming a node that does not exist; the
	// ghost must disappear (Proposition 2).
	r := newRing(graph.Line(3), Config{Dmax: 3})
	ghost := antlist.FromSets(
		antlist.NewSet(ident.Plain(1)),
		antlist.NewSet(ident.Plain(99)),
		antlist.NewSet(ident.Plain(98)),
	)
	r.nodes[1].LoadState(ghost, nil, nil, priority.New(1))
	r.rounds(25)
	for v, n := range r.nodes {
		if n.List().Has(99) || n.List().Has(98) {
			t.Fatalf("ghost survived on %v: %v", v, n.List())
		}
	}
	if !viewEq(r.view(2), 1, 2, 3) {
		t.Fatalf("line did not converge after corruption: %v", r.view(2))
	}
}

func TestOversizedCorruptListShrinks(t *testing.T) {
	// Proposition 1: lists longer than Dmax+1 disappear after one compute.
	n := NewNode(1, Config{Dmax: 2})
	sets := make([]antlist.Set, 8)
	sets[0] = antlist.NewSet(ident.Plain(1))
	for i := 1; i < 8; i++ {
		sets[i] = antlist.NewSet(ident.Plain(ident.NodeID(10 + i)))
	}
	n.LoadState(antlist.FromSets(sets...), nil, nil, priority.New(1))
	n.Compute()
	if n.List().Len() > 3 {
		t.Fatalf("list still oversized: %v", n.List())
	}
}

func TestStarTopologyAgreement(t *testing.T) {
	r := newRing(graph.Star(6), Config{Dmax: 2})
	r.rounds(30)
	want := r.view(1)
	if len(want) != 6 {
		t.Fatalf("star should be one group (diameter 2): %v", want)
	}
	for v := range r.nodes {
		if !reflect.DeepEqual(r.view(v), want) {
			t.Fatalf("disagreement on %v: %v vs %v", v, r.view(v), want)
		}
	}
}

func TestComputesCounter(t *testing.T) {
	n := NewNode(1, Config{Dmax: 2})
	n.Compute()
	n.Compute()
	if n.Computes() != 2 {
		t.Fatalf("Computes = %d", n.Computes())
	}
}

// TestAppendStateMatchesFmt holds AppendState equal to the fmt rendering
// it replaced under the run fingerprints, on the states a run rarely or
// never visits (internal/conformance holds it on those every scenario
// does): every mark, one outside the lattice included, infinite
// priorities, empty and corrupted lists, an empty view, a quarantined and
// an untracked self. The String methods fmt calls are themselves written
// over the append helpers, so each line is also pinned to the literal
// bytes fmt.Sprintf-built Strings gave it.
func TestAppendStateMatchesFmt(t *testing.T) {
	const me = ident.NodeID(7)
	set := antlist.NewSet
	for _, st := range []struct {
		list antlist.List
		view map[ident.NodeID]bool
		quar map[ident.NodeID]int
		self priority.P
		want string
	}{
		{antlist.Singleton(ident.Plain(me)), nil, nil, priority.New(me),
			"7|({n7})|[n7]|pr(0@n7)|pr(0@n7)|0\n"},
		{antlist.List{}, map[ident.NodeID]bool{}, map[ident.NodeID]int{}, priority.Infinite,
			"7|()|[]|pr(∞)|pr(∞)|-1\n"},
		{antlist.FromSets(set(ident.Plain(me)), set(ident.Single(3), ident.Double(4), ident.Entry{ID: 5, Mark: 9}), set(ident.Plain(4294967295))),
			map[ident.NodeID]bool{3: true, me: true, 4294967295: true, 4: false}, map[ident.NodeID]int{me: 3, 3: 1}, priority.P{Clock: ^uint64(0) - 1, ID: 1},
			"7|({n7},{n3',n4'',n5},{n4294967295})|[n3 n7 n4294967295]|pr(18446744073709551614@n1)|pr(18446744073709551614@n1)|3\n"},
		{antlist.FromSets(set(), set(ident.Double(me)), set(), set(ident.Plain(2), ident.Plain(1))),
			map[ident.NodeID]bool{1: true}, map[ident.NodeID]int{2: 12}, priority.P{},
			"7|({},{n7''},{},{n1,n2})|[n1]|pr(0@n0)|pr(0@n0)|-1\n"},
	} {
		n := NewNode(me, Config{Dmax: 3})
		n.LoadState(st.list, st.view, st.quar, st.self)
		viaFmt := fmt.Sprintf("%d|%s|%v|%s|%s|%d\n", me, n.List(), n.View(), n.Priority(), n.GroupPriority(), n.QuarantineOf(me))
		if got := string(n.AppendState([]byte("kept:"))); got != "kept:"+st.want || viaFmt != st.want {
			t.Errorf("AppendState renders %q, fmt renders %q, want %q", got, viaFmt, st.want)
		}
	}
}
