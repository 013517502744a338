// Package fault is the deterministic fault-injection subsystem: a
// seeded, round-scheduled injector that composes adversities against a
// running engine — crash-recover (a node's protocol state reset to
// zeroed or adversarially corrupted contents), Byzantine liars (nodes
// broadcasting well-formed wire frames with falsified antlists for K
// rounds), channel adversities (burst loss, per-link asymmetric loss,
// frame duplication — see channel.go), and flapping membership storms
// (correlated leave/rejoin of a spatial neighborhood). It exists to
// attack the paper's headline property: from an arbitrary state the
// protocol reconverges to a legitimate configuration within a bounded
// number of rounds, which obs.Monitor turns into measured
// stabilization-time distributions.
//
// Determinism: every fault decision draws from one of three private RNG
// streams derived from Profile.Seed (crash, Byzantine, flap — splitmix64
// separation, mirroring the engine's shard streams), victims are picked
// from the engine's canonical roster order, and all injection happens on
// the coordinator at round boundaries through Injector.Apply — never
// mid-phase. Nothing here depends on the engine's Workers setting, so a
// chaos run is bit-identical at any worker count; the conformance suite
// pins this with the injector armed.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/antlist"
	"repro/internal/engine"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/priority"
	"repro/internal/radio"
)

// Kind labels one injected fault event.
type Kind uint8

const (
	// KindCrash is a crash-recover: the victim's protocol state was reset
	// to zeroed or corrupted contents.
	KindCrash Kind = iota
	// KindByz marks a node starting to broadcast falsified frames.
	KindByz
	// KindByzStop marks a liar reverting to honest broadcasts — the last
	// disturbance of its lie episode.
	KindByzStop
	// KindFlap is a membership storm: a spatial neighborhood left.
	KindFlap
	// KindRejoin is the correlated return of a flapped neighborhood.
	KindRejoin
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindByz:
		return "byz"
	case KindByzStop:
		return "byz-stop"
	case KindFlap:
		return "flap"
	case KindRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one injected fault, as reported to the convergence monitor.
type Event struct {
	Round int
	Kind  Kind
	Node  ident.NodeID // the victim (the epicenter, for storms)
	N     int          // nodes affected (storm size; 1 otherwise)
}

// CrashConfig schedules crash-recover faults.
type CrashConfig struct {
	// Rate is the expected number of crashes per round.
	Rate float64
	// CorruptP is the probability a crash recovers into an adversarially
	// corrupted state instead of a zeroed (fresh-boot) one.
	CorruptP float64
	// PoisonP is the probability a corrupted recovery also poisons the
	// victim's boundary memory against genuine neighbors.
	PoisonP float64
}

// ByzConfig schedules Byzantine lie episodes.
type ByzConfig struct {
	// Rate is the per-round probability of a new liar starting, while
	// fewer than Liars are active.
	Rate float64
	// Liars caps the number of simultaneously active liars.
	Liars int
	// LieRounds is each episode's length in rounds.
	LieRounds int
}

// FlapConfig schedules membership storms.
type FlapConfig struct {
	// Rate is the per-round probability of a storm.
	Rate float64
	// DownRounds is how long a flapped neighborhood stays gone before its
	// correlated rejoin.
	DownRounds int
	// MaxStorm caps a storm's size (0 = 8): in a dense world an epicenter
	// plus full neighborhood would take out half the population.
	MaxStorm int
}

// ChanConfig describes the channel adversity (see channel.go), omitted
// when zero.
type ChanConfig struct {
	// Burst*: the Gilbert–Elliott chain (BurstLoss). Enabled when
	// BurstPGoodBad > 0.
	BurstLossGood, BurstLossBad  float64
	BurstPGoodBad, BurstPBadGood float64
}

// Profile is one complete fault schedule.
type Profile struct {
	// Name labels the profile in episode records and CLI output.
	Name string
	// Seed derives the injector's private RNG streams. Independent of the
	// engine seed so the same fault schedule can replay against different
	// worlds.
	Seed int64
	// Until is the last round at which *new* faults start (0 = no limit).
	// The channel adversity stack also stands down once the injector's
	// round clock passes Until, so the tail is genuinely fault-free;
	// already-running lie episodes finish and scheduled rejoins still
	// fire, so the quiet tail a driver leaves after Until must cover
	// LieRounds/DownRounds plus the confirmation window.
	Until int

	Crash CrashConfig
	Byz   ByzConfig
	Flap  FlapConfig
	Chan  ChanConfig

	// clock is the shared round counter behind the channel gate: created
	// by NewChannel, advanced by Injector.Apply. Without an injector it
	// stays 0 and the adversity stack never stands down.
	clock *int
}

// faultSeed derives sub-stream s from the profile seed (splitmix64, like
// the engine's shard streams).
func faultSeed(seed int64, s int) int64 {
	z := uint64(seed) ^ 0xdf900294d8f554a5 + 0x9e3779b97f4a7c15*uint64(s+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// NewChannel layers the profile's burst chain over inner (Perfect when
// nil) and returns the resulting channel, or inner unchanged when the
// profile schedules no channel adversity. The returned channel implements
// radio.DropCounter whenever the chain is present. The chain is wrapped
// in a round-clock gate: an Injector armed on the same profile advances
// the clock, and slots past Until bypass the adversity entirely (see
// gated).
func (p *Profile) NewChannel(inner radio.Channel) radio.Channel {
	if p.Chan.BurstPGoodBad <= 0 {
		return inner
	}
	if p.clock == nil {
		p.clock = new(int)
	}
	burst := &BurstLoss{
		LossGood: p.Chan.BurstLossGood, LossBad: p.Chan.BurstLossBad,
		PGoodBad: p.Chan.BurstPGoodBad, PBadGood: p.Chan.BurstPBadGood,
		Inner: inner,
	}
	return &gated{adverse: burst, plain: inner, until: &p.Until, clock: p.clock}
}

// Preset returns a named profile with rates scaled by intensity (1 = the
// baseline; probabilities are clamped to 0.95). Names: "crash",
// "byzantine", "flap", "burst", "mixed" (crash + one Byzantine liar +
// burst loss — the acceptance chaos profile).
func Preset(name string, intensity float64) (*Profile, error) {
	if intensity <= 0 {
		intensity = 1
	}
	prob := func(p float64) float64 { return min(p*intensity, 0.95) }
	p := &Profile{Name: name}
	crash := func() { p.Crash = CrashConfig{Rate: 0.02 * intensity, CorruptP: 0.5, PoisonP: 0.5} }
	byz := func() { p.Byz = ByzConfig{Rate: prob(0.02), Liars: 1, LieRounds: 30} }
	flap := func() { p.Flap = FlapConfig{Rate: prob(0.005), DownRounds: 20} }
	burst := func() {
		p.Chan = ChanConfig{
			BurstLossGood: 0.01, BurstLossBad: prob(0.6),
			BurstPGoodBad: prob(0.05), BurstPBadGood: 0.25,
		}
	}
	switch name {
	case "crash":
		crash()
	case "byzantine":
		byz()
	case "flap":
		flap()
	case "burst":
		burst()
	case "mixed":
		crash()
		byz()
		burst()
	default:
		return nil, fmt.Errorf("fault: unknown profile %q (crash|byzantine|flap|burst|mixed)", name)
	}
	return p, nil
}

// Hooks are the topology-side callbacks a storm needs: the injector owns
// the engine membership calls, the driver owns its world (remember the
// position on Leave, re-place on Rejoin — engine.AddNode requires the
// node to already exist in the topology).
type Hooks struct {
	Leave  func(v ident.NodeID)
	Rejoin func(v ident.NodeID)
}

// flapGroup is one downed neighborhood awaiting its correlated rejoin.
type flapGroup struct {
	epicenter ident.NodeID
	victims   []ident.NodeID
	rejoinAt  int
}

// liar is one active Byzantine episode.
type liar struct {
	id    ident.NodeID
	until int // first round it broadcasts honestly again
}

// Injector schedules a Profile against an engine. All methods must be
// called on the coordinator between engine Steps (phase alignment — see
// the package comment); Apply once per round, before StepRound.
type Injector struct {
	p     *Profile
	e     *engine.Engine
	hooks Hooks

	crashRNG, byzRNG, flapRNG *rand.Rand

	liars  []liar      // ascending start order
	down   []flapGroup // FIFO by rejoin round
	events []Event     // scratch, reused across Apply calls

	// FaultsInjected counts events; NodesAffected sums their N.
	FaultsInjected int
	NodesAffected  int
}

// NewInjector arms profile p against e. Hook funcs may be nil when the
// profile schedules no flap storms.
func NewInjector(p *Profile, e *engine.Engine, hooks Hooks) *Injector {
	return &Injector{
		p:        p,
		e:        e,
		hooks:    hooks,
		crashRNG: rand.New(rand.NewSource(faultSeed(p.Seed, 0))),
		byzRNG:   rand.New(rand.NewSource(faultSeed(p.Seed, 1))),
		flapRNG:  rand.New(rand.NewSource(faultSeed(p.Seed, 2))),
	}
}

// Active reports whether any adversity is still in flight — a liar armed
// or a neighborhood down. The convergence monitor refuses to start its
// confirmation window while the injector is active: a steady lie can hold
// the world in a plausible-but-wrong configuration that must not count
// as stabilized.
func (in *Injector) Active() bool { return len(in.liars) > 0 || len(in.down) > 0 }

// countFromRate turns a per-round rate into a count: the integer part
// plus one more with the fractional probability.
func countFromRate(rng *rand.Rand, rate float64) int {
	k := int(rate)
	if rng.Float64() < rate-float64(k) {
		k++
	}
	return k
}

// pick draws a uniform victim from the engine's canonical order, or
// ident.None when the world is empty.
func pick(rng *rand.Rand, members []ident.NodeID) ident.NodeID {
	if len(members) == 0 {
		return ident.None
	}
	return members[rng.Intn(len(members))]
}

// Apply runs round r's schedule: due rejoins, lie expiries and
// refreshes, then — while r is within the profile's Until horizon — new
// crashes, lie starts and storms. It returns the round's fault events;
// the slice is reused by the next call.
func (in *Injector) Apply(r int) []Event {
	in.events = in.events[:0]
	if in.p.clock != nil {
		*in.p.clock = r
	}

	// 1. Correlated rejoins due this round.
	keptDown := in.down[:0]
	for _, g := range in.down {
		if g.rejoinAt > r {
			keptDown = append(keptDown, g)
			continue
		}
		for _, v := range g.victims {
			if in.hooks.Rejoin != nil {
				in.hooks.Rejoin(v)
			}
			in.e.AddNode(v)
		}
		in.emit(Event{Round: r, Kind: KindRejoin, Node: g.epicenter, N: len(g.victims)})
	}
	in.down = keptDown

	// 2. Lie expiries, then a fresh forgery for every surviving liar: a
	// static lie would be elided by receivers' inbox signatures after the
	// first delivery; a real adversary varies its story.
	keptLiars := in.liars[:0]
	for _, l := range in.liars {
		if in.e.SlotOf(l.id) < 0 {
			continue // flapped or churned away mid-lie
		}
		if l.until <= r {
			in.e.ClearLie(l.id)
			in.emit(Event{Round: r, Kind: KindByzStop, Node: l.id, N: 1})
			continue
		}
		in.setLie(l.id)
		keptLiars = append(keptLiars, l)
	}
	in.liars = keptLiars

	if in.p.Until > 0 && r > in.p.Until {
		return in.events
	}

	// 3. Crash-recover.
	for k := countFromRate(in.crashRNG, in.p.Crash.Rate); k > 0; k-- {
		in.crash(r)
	}

	// 4. New Byzantine episode.
	b := in.p.Byz
	if b.Liars > 0 && b.LieRounds > 0 && len(in.liars) < b.Liars && in.byzRNG.Float64() < b.Rate {
		if v := pick(in.byzRNG, in.e.Order()); v != ident.None && !in.lying(v) {
			in.liars = append(in.liars, liar{id: v, until: r + b.LieRounds})
			in.setLie(v)
			in.emit(Event{Round: r, Kind: KindByz, Node: v, N: 1})
		}
	}

	// 5. Membership storm.
	f := in.p.Flap
	if f.Rate > 0 && in.flapRNG.Float64() < f.Rate {
		in.storm(r)
	}

	return in.events
}

func (in *Injector) emit(ev Event) {
	in.events = append(in.events, ev)
	in.FaultsInjected++
	in.NodesAffected += ev.N
	reg := in.e.Introspect()
	reg.Inc(introspect.CtrFaultsInjected)
	reg.Add(introspect.CtrFaultNodesAffected, uint64(ev.N))
}

func (in *Injector) lying(v ident.NodeID) bool {
	for _, l := range in.liars {
		if l.id == v {
			return true
		}
	}
	return false
}

// setLie forges and installs a fresh falsified broadcast for v.
func (in *Injector) setLie(v ident.NodeID) {
	g := in.e.Topo.Graph()
	m := forgeLie(in.byzRNG, v, g.NeighborsView(v), in.e.Order(), in.e.P.Cfg.Dmax)
	in.e.SetLie(v, m)
}

// crash reboots one victim through CrashNode, corrupted per CorruptP, and
// poisons a corrupted victim's boundary memory per PoisonP.
func (in *Injector) crash(r int) {
	rng := in.crashRNG
	v := pick(rng, in.e.Order())
	if v == ident.None {
		return
	}
	corrupt := rng.Float64() < in.p.Crash.CorruptP
	CrashNode(in.e, v, rng, corrupt)
	if corrupt && rng.Float64() < in.p.Crash.PoisonP {
		// Poison the boundary memory against genuine neighbors: the
		// recovered node auto-rejects real peers until the holds expire.
		nbrs := in.e.Topo.Graph().NeighborsView(v)
		for k := 1 + rng.Intn(2); k > 0 && len(nbrs) > 0; k-- {
			u := nbrs[rng.Intn(len(nbrs))]
			in.e.Node(v).PoisonBoundary(u, uint64(1+rng.Intn(3*in.e.P.Cfg.Dmax+1)))
		}
	}
	in.emit(Event{Round: r, Kind: KindCrash, Node: v, N: 1})
}

// storm removes an epicenter and (a capped slice of) its current
// neighborhood in one round and schedules their correlated rejoin.
func (in *Injector) storm(r int) {
	f := in.p.Flap
	epi := pick(in.flapRNG, in.e.Order())
	if epi == ident.None {
		return
	}
	limit := f.MaxStorm
	if limit <= 0 {
		limit = 8
	}
	nbrs := in.e.Topo.Graph().NeighborsView(epi)
	victims := make([]ident.NodeID, 0, limit)
	victims = append(victims, epi)
	for _, u := range nbrs {
		if len(victims) >= limit {
			break
		}
		victims = append(victims, u)
	}
	for _, v := range victims {
		if in.hooks.Leave != nil {
			in.hooks.Leave(v)
		}
		in.e.RemoveNode(v)
	}
	down := f.DownRounds
	if down <= 0 {
		down = 10
	}
	in.down = append(in.down, flapGroup{epicenter: epi, victims: victims, rejoinAt: r + down})
	in.emit(Event{Round: r, Kind: KindFlap, Node: epi, N: len(victims)})
}

// CrashNode injects a single targeted crash-recover fault against v — the
// scheduled crash's reset, and the entry point for tests and experiments
// that do not want a full profile. It reports whether v is a live member.
func CrashNode(e *engine.Engine, v ident.NodeID, rng *rand.Rand, corrupt bool) bool {
	n := e.Node(v)
	if n == nil {
		return false
	}
	if !corrupt {
		n.LoadState(antlist.Singleton(ident.Plain(v)), nil, nil, priority.New(v))
		return true
	}
	list, view, quar, self := corruptState(rng, v, e.Order(), e.P.Cfg.Dmax)
	n.LoadState(list, view, quar, self)
	return true
}
