package fault

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/space"
)

func TestPresetProfiles(t *testing.T) {
	for _, name := range []string{"crash", "byzantine", "flap", "burst", "mixed"} {
		p, err := Preset(name, 1)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("Preset(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := Preset("nope", 1); err == nil {
		t.Fatal("Preset(nope) did not error")
	}
	// Intensity scales rates but keeps probabilities clamped.
	p, _ := Preset("mixed", 100)
	if p.Byz.Rate > 0.95 || p.Chan.BurstPGoodBad > 0.95 {
		t.Fatalf("intensity 100 left unclamped probabilities: %+v", p)
	}
	if p.Crash.Rate <= 0.02 {
		t.Fatalf("intensity 100 did not scale crash rate: %v", p.Crash.Rate)
	}
}

// slotOf builds one three-sender slot over a line topology.
func testTxs() []radio.Tx {
	return []radio.Tx{
		{Sender: 1, Receivers: []ident.NodeID{2}},
		{Sender: 2, Receivers: []ident.NodeID{1, 3}},
		{Sender: 3, Receivers: []ident.NodeID{2}},
	}
}

func TestBurstLossChainAndCounter(t *testing.T) {
	// PGoodBad=1, PBadGood=0: the chain jumps to bad on the first slot and
	// stays there; LossBad=1 drops everything from then on.
	b := &BurstLoss{LossGood: 0, LossBad: 1, PGoodBad: 1, PBadGood: 0}
	rng := rand.New(rand.NewSource(1))
	for slot := 0; slot < 5; slot++ {
		if got := b.AppendDeliverSlot(testTxs(), rng, nil); len(got) != 0 {
			t.Fatalf("slot %d: bad-state burst channel delivered %d", slot, len(got))
		}
	}
	if !b.Bad() {
		t.Fatal("chain did not transition to bad")
	}
	if b.DroppedDeliveries() != 20 { // 4 deliveries × 5 slots
		t.Fatalf("DroppedDeliveries = %d, want 20", b.DroppedDeliveries())
	}
}

func TestAsymLossIsPerLinkStable(t *testing.T) {
	a := &AsymLoss{MaxP: 1, Seed: 42}
	p12, p21 := a.linkP(1, 2), a.linkP(2, 1)
	if p12 < 0 || p12 >= 1 || p21 < 0 || p21 >= 1 {
		t.Fatalf("link probabilities out of range: %v %v", p12, p21)
	}
	if p12 == p21 {
		t.Fatalf("directions hashed identically: %v", p12)
	}
	if a.linkP(1, 2) != p12 {
		t.Fatal("linkP not stable")
	}
}

func TestDupDuplicatesEveryFrame(t *testing.T) {
	d := &Dup{P: 1}
	rng := rand.New(rand.NewSource(1))
	got := d.AppendDeliverSlot(testTxs(), rng, nil)
	if len(got) != 8 {
		t.Fatalf("Dup{P:1} delivered %d, want 8 (4 originals + 4 duplicates)", len(got))
	}
	if d.Duplicated() != 4 {
		t.Fatalf("Duplicated = %d, want 4", d.Duplicated())
	}
	if d.DroppedDeliveries() != 0 {
		t.Fatalf("Dup reported drops: %d", d.DroppedDeliveries())
	}
}

func TestProfileChannelStack(t *testing.T) {
	p, _ := Preset("mixed", 1)
	ch := p.NewChannel(nil)
	if _, ok := ch.(radio.DropCounter); !ok {
		t.Fatal("mixed profile channel does not count drops")
	}
	// No channel adversity: inner comes back unchanged.
	plain := &Profile{Name: "none"}
	if got := plain.NewChannel(radio.Perfect{}); got != (radio.Perfect{}) {
		t.Fatalf("empty channel config wrapped the inner channel: %T", got)
	}
}

func TestForgeLiePassesGoodList(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	neighbors := []ident.NodeID{7, 9, 12}
	m := forgeLie(rng, 3, neighbors, []ident.NodeID{3, 7, 9, 12, 15}, 3)
	if m.From != 3 {
		t.Fatalf("forged From = %v", m.From)
	}
	if m.List.Len() < 2 {
		t.Fatalf("forged list too short: %v", m.List)
	}
	if e, ok := m.List.At(0).Get(3); !ok || e.Mark != ident.MarkPlain {
		t.Fatalf("layer 0 does not hold the plain liar: %v", m.List)
	}
	for _, u := range neighbors {
		if !m.List.At(1).Has(u) {
			t.Fatalf("layer 1 misses genuine neighbor %v (good-list test would fail): %v", u, m.List)
		}
	}
}

func TestCorruptStateLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	members := []ident.NodeID{1, 2, 3, 4, 5}
	for i := 0; i < 50; i++ {
		list, view, quar, self := corruptState(rng, 2, members, 3)
		if self.ID != 2 {
			t.Fatalf("self priority for wrong node: %v", self)
		}
		if !view[2] {
			t.Fatal("corrupted view dropped the node itself")
		}
		n := core.NewNode(2, core.Config{Dmax: 3})
		n.LoadState(list, view, quar, self) // must not panic
		n.Compute()                         // nor must computing from it
	}
}

// chaosWorld builds a spatial engine plus an armed injector with world
// hooks — the integration harness the determinism tests run twice.
type chaosWorld struct {
	e   *engine.Engine
	inj *Injector
}

func newChaosWorld(workers int) *chaosWorld {
	const n = 40
	w := space.NewWorld(3)
	ids := make([]ident.NodeID, n)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	topo := engine.NewSpatialTopology(w, &mobility.Static{Side: 12}, 0.2, ids,
		rand.New(rand.NewSource(99)))
	prof, err := Preset("mixed", 1)
	if err != nil {
		panic(err)
	}
	prof.Seed = 17
	prof.Flap = FlapConfig{Rate: 0.05, DownRounds: 6, MaxStorm: 4}
	e := engine.New(engine.Params{
		Cfg:     core.Config{Dmax: 3},
		Ts:      1,
		Tc:      2,
		Channel: prof.NewChannel(nil),
		Seed:    7,
		Workers: workers,
	}, topo)
	positions := map[ident.NodeID]space.Point{}
	inj := NewInjector(prof, e, Hooks{
		Leave: func(v ident.NodeID) {
			if p, ok := w.Pos(v); ok {
				positions[v] = p
			}
			w.Remove(v)
		},
		Rejoin: func(v ident.NodeID) {
			w.Place(v, positions[v])
		},
	})
	return &chaosWorld{e: e, inj: inj}
}

// trace runs the chaos world and fingerprints each round: fault events,
// engine counters, and every node's view.
func (cw *chaosWorld) trace(rounds int) []string {
	out := make([]string, 0, rounds)
	for r := 1; r <= rounds; r++ {
		evs := cw.inj.Apply(r)
		cw.e.StepRound()
		reg := cw.e.Introspect()
		s := fmt.Sprintf("r%d evs%v msgs%d bytes%d deliv%d", r, evs, reg.Get(introspect.CtrMessagesSent),
			reg.Get(introspect.CtrBytesSent), reg.Get(introspect.CtrDeliveries))
		for _, v := range cw.e.Order() {
			s += fmt.Sprintf("|%d:%v", v, cw.e.Node(v).View())
		}
		out = append(out, s)
	}
	return out
}

func TestInjectorDeterministicAcrossWorkers(t *testing.T) {
	seq := newChaosWorld(1).trace(120)
	par := newChaosWorld(4).trace(120)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("chaos trace diverged at round %d:\nseq: %s\npar: %s", i+1, seq[i], par[i])
		}
	}
	// The run must actually have injected something, or the test is vacuous.
	w := newChaosWorld(1)
	w.trace(120)
	if w.inj.FaultsInjected == 0 {
		t.Fatal("mixed profile injected no faults in 120 rounds")
	}
}

func TestInjectorFlapRemovesAndRejoins(t *testing.T) {
	cw := newChaosWorld(1)
	// Force a storm immediately: rate 1 fires on the first Apply.
	cw.inj.p.Crash.Rate = 0
	cw.inj.p.Byz.Rate = 0
	cw.inj.p.Flap = FlapConfig{Rate: 1, DownRounds: 3, MaxStorm: 4}
	before := len(cw.e.Order())
	evs := cw.inj.Apply(1)
	if len(evs) != 1 || evs[0].Kind != KindFlap {
		t.Fatalf("expected one flap event, got %v", evs)
	}
	if got := len(cw.e.Order()); got != before-evs[0].N {
		t.Fatalf("population after storm = %d, want %d", got, before-evs[0].N)
	}
	if !cw.inj.Active() {
		t.Fatal("injector not active while a neighborhood is down")
	}
	cw.inj.p.Flap.Rate = 0
	cw.inj.Apply(2)
	cw.inj.Apply(3)
	evs = cw.inj.Apply(4) // rejoinAt = 1+3
	var rejoined bool
	for _, ev := range evs {
		if ev.Kind == KindRejoin {
			rejoined = true
		}
	}
	if !rejoined {
		t.Fatalf("no rejoin at round 4: %v", evs)
	}
	if got := len(cw.e.Order()); got != before {
		t.Fatalf("population after rejoin = %d, want %d", got, before)
	}
}

func TestByzantineLieReachesReceivers(t *testing.T) {
	cw := newChaosWorld(1)
	cw.inj.p.Crash.Rate = 0
	cw.inj.p.Flap.Rate = 0
	cw.inj.p.Chan = ChanConfig{}
	cw.inj.p.Byz = ByzConfig{Rate: 1, Liars: 1, LieRounds: 5}
	// Settle first so receivers are in a converged state the lie disturbs.
	for r := 1; r <= 30; r++ {
		cw.e.StepRound()
	}
	evs := cw.inj.Apply(31)
	if len(evs) != 1 || evs[0].Kind != KindByz {
		t.Fatalf("expected a byz start, got %v", evs)
	}
	liar := evs[0].Node
	if !cw.e.Lying(liar) {
		t.Fatal("engine does not report the liar as lying")
	}
	cw.inj.p.Byz.Rate = 0 // one episode only, or a new liar starts on expiry
	cw.e.StepRound()
	// After the episode the lie must clear.
	for r := 32; r <= 40; r++ {
		cw.inj.Apply(r)
		cw.e.StepRound()
	}
	if cw.e.Lying(liar) {
		t.Fatal("lie still armed after its episode ended")
	}
	if cw.inj.Active() {
		t.Fatal("injector still active after the lie ended")
	}
}

func TestCrashNodeTargeted(t *testing.T) {
	cw := newChaosWorld(1)
	for r := 1; r <= 20; r++ {
		cw.e.StepRound()
	}
	v := cw.e.Order()[0]
	rng := rand.New(rand.NewSource(3))
	if !CrashNode(cw.e, v, rng, false) {
		t.Fatal("CrashNode refused a live member")
	}
	if got := cw.e.Node(v).View(); len(got) != 1 || got[0] != v {
		t.Fatalf("zeroed crash left view %v", got)
	}
	if CrashNode(cw.e, ident.NodeID(9999), rng, true) {
		t.Fatal("CrashNode accepted a non-member")
	}
}
