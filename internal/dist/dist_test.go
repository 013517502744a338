package dist

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/obs"
)

// captureSink records the per-round stats stream for comparison.
type captureSink struct {
	recs []obs.RoundStats
}

func (c *captureSink) Write(r obs.RoundStats) error {
	c.recs = append(c.recs, r)
	return nil
}
func (c *captureSink) Close() error { return nil }

// commuterSoak is the conformance scenario: the mostly-parked commuter
// regime (delta graph path) over a dense-enough world that the slabs
// actually interact across their boundaries every round.
func commuterSoak(rounds int) obs.SoakConfig {
	return obs.SoakConfig{
		N:              150,
		Side:           33,
		ActiveFraction: 0.08,
		Seed:           19,
		Dmax:           3,
		MaxRounds:      rounds,
		Fingerprint:    true,
	}
}

// runBoth runs the scenario single-process and sharded and returns both
// results plus the two captured stats streams.
func runBoth(t *testing.T, soak obs.SoakConfig, shards int) (ref, got *obs.SoakResult, refRecs, gotRecs []obs.RoundStats) {
	t.Helper()
	refSink := &captureSink{}
	refCfg := soak
	refCfg.Sink = refSink
	ref, err := obs.RunSoak(refCfg)
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	gotSink := &captureSink{}
	distSoak := soak
	distSoak.Sink = gotSink
	got, err = RunLoopback(Config{Soak: distSoak, Shards: shards})
	if err != nil {
		t.Fatalf("RunLoopback(%d): %v", shards, err)
	}
	return ref, got, refSink.recs, gotSink.recs
}

// assertIdentical pins the conformance surface: the full per-round stats
// stream, the final stats record, and the end-of-run state fingerprint
// must be bit-identical between one process and N.
func assertIdentical(t *testing.T, shards int, ref, got *obs.SoakResult, refRecs, gotRecs []obs.RoundStats) {
	t.Helper()
	if len(refRecs) != len(gotRecs) {
		t.Fatalf("%d shards: %d records vs %d", shards, len(gotRecs), len(refRecs))
	}
	for i := range refRecs {
		if !reflect.DeepEqual(refRecs[i], gotRecs[i]) {
			t.Fatalf("%d shards: round %d diverged:\n 1p: %+v\n %dp: %+v",
				shards, i+1, refRecs[i], shards, gotRecs[i])
		}
	}
	if ref.Fingerprint != got.Fingerprint {
		t.Fatalf("%d shards: fingerprint %016x vs %016x", shards, got.Fingerprint, ref.Fingerprint)
	}
	if !reflect.DeepEqual(ref.Final, got.Final) {
		t.Fatalf("%d shards: final stats diverged:\n 1p: %+v\n Np: %+v", shards, ref.Final, got.Final)
	}
	if ref.Ticks != got.Ticks || ref.Rounds != got.Rounds {
		t.Fatalf("%d shards: %d rounds %d ticks vs %d rounds %d ticks",
			shards, got.Rounds, got.Ticks, ref.Rounds, ref.Ticks)
	}
}

// TestLoopbackConformance is the tentpole pin: the commuter scenario is
// bit-identical between the single-process engine and 2- and 4-shard
// distributed runs over the loopback transport.
func TestLoopbackConformance(t *testing.T) {
	soak := commuterSoak(40)
	for _, shards := range []int{2, 4} {
		ref, got, refRecs, gotRecs := runBoth(t, soak, shards)
		assertIdentical(t, shards, ref, got, refRecs, gotRecs)
		// With every oracle armed — which also scribbles over each replaced
		// ghost's storage the tick the pools may hand it out again — the
		// run is still the clean single-process one.
		armed, armedRecs, p := runArmed(soak, shards, false, true, -1)
		if p != nil {
			t.Fatalf("%d shards, SelfCheck armed: %v", shards, p)
		}
		assertIdentical(t, shards, ref, armed, refRecs, armedRecs)
		// The split must actually exercise the boundary protocol, or the
		// pin proves nothing.
		if got.Flight.Counters["ext_deliveries"] == 0 {
			t.Fatalf("%d shards: no external deliveries — slabs never interacted", shards)
		}
		if got.Flight.Counters["ghost_updates"] == 0 {
			t.Fatalf("%d shards: no ghost updates", shards)
		}
	}
}

// runArmed is RunLoopback over shards built through newShard's seam:
// compute timers jittered or not, each shard's engine under the SelfCheck
// oracle or not (armed, a retired ghost's storage is poisoned like a retired
// broadcast's), and the ticks retired storage sits out of the engines'
// pools forced to hold (negative: Tc). It returns the lead's result and
// stream, or what a shard panicked with.
func runArmed(soak obs.SoakConfig, shards int, jitter, selfCheck bool, hold int) (res *obs.SoakResult, recs []obs.RoundStats, panicked any) {
	sink := &captureSink{}
	soak.Sink = sink
	trs := NewLoopback(shards)
	results := make([]*obs.SoakResult, shards)
	fails := make([]any, shards)
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if fails[i] = recover(); fails[i] != nil {
					trs[i].Close() // a failed shard must not leave its peers in the barrier
				}
			}()
			sh, err := newShard(Config{Soak: soak, Shards: shards}, i, trs[i], jitter)
			if err != nil {
				panic(err)
			}
			sh.E.SetSelfCheck(selfCheck)
			if hold >= 0 {
				sh.E.SetRecsHold(hold, hold)
			}
			if results[i], err = sh.run(time.Now()); err != nil && !errors.Is(err, ErrTransportClosed) {
				panic(err)
			}
		}()
	}
	wg.Wait()
	for _, p := range fails {
		if p != nil {
			return nil, nil, p
		}
	}
	return results[0], sink.recs, nil
}

// TestGhostHeldTooShortIsCaught is the dist twin of conformance's
// TestScratchCarriesNoState and TestRetiredRecsHeldTooShortIsCaught: on
// jittered timers a receiver outlives the refresh of a ghost it was
// delivered, so the storage a refresh retires must sit out Tc ticks. Armed
// and poisoned at Tc, and at Tc−1, the run is the clean one; at 0 it panics
// in an oracle or leaves the clean trace.
func TestGhostHeldTooShortIsCaught(t *testing.T) {
	const tc = 2 // the engine's default compute period, which NewShard keeps
	soak := obs.SoakConfig{N: 80, Side: 18, Seed: 7, Dmax: 3, MaxRounds: 30, Fingerprint: true}
	clean, cleanRecs, p := runArmed(soak, 2, true, false, -1)
	if p != nil {
		t.Fatal(p)
	}
	same := func(res *obs.SoakResult, recs []obs.RoundStats) bool {
		return res.Fingerprint == clean.Fingerprint && reflect.DeepEqual(recs, cleanRecs)
	}
	for _, hold := range []int{-1, tc - 1} {
		if res, recs, p := runArmed(soak, 2, true, true, hold); p != nil || !same(res, recs) {
			t.Fatalf("hold %d diverged (panic: %v): Tc leaves no slack", hold, p)
		}
	}
	if res, recs, p := runArmed(soak, 2, true, true, 0); p == nil && same(res, recs) {
		t.Fatal("hold 0 went unnoticed: no receiver outlives a ghost's refresh here, or the poison is not armed")
	}
}

// TestLoopbackConformanceWaypoint covers the all-moving regime (full
// graph rebuilds every tick, so receiver rows churn constantly and
// movers keep crossing the slab cuts mid-run — the hand-off case).
func TestLoopbackConformanceWaypoint(t *testing.T) {
	soak := obs.SoakConfig{N: 80, Side: 18, Seed: 7, Dmax: 3, MaxRounds: 30, Fingerprint: true}
	ref, got, refRecs, gotRecs := runBoth(t, soak, 3)
	assertIdentical(t, 3, ref, got, refRecs, gotRecs)
	if got.Flight.Counters["ext_deliveries"] == 0 {
		t.Fatal("no external deliveries in the all-moving regime")
	}
}

// TestCrossShardMoverHandoff pins the ownership rule under migration:
// with every node moving, nodes provably end up on the far side of
// their slab cut, yet ownership stays with the original shard and the
// trace stays identical (the partition is load-balancing only).
func TestCrossShardMoverHandoff(t *testing.T) {
	soak := obs.SoakConfig{N: 60, Side: 14, Seed: 3, Dmax: 3, MaxRounds: 25, Fingerprint: true}
	trs := NewLoopback(2)
	cfg := Config{Soak: soak, Shards: 2}
	shards := make([]*Shard, 2)
	for i := range shards {
		var err error
		if shards[i], err = NewShard(cfg, i, trs[i]); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		for r := 0; r < soak.MaxRounds; r++ {
			if err := shards[1].StepRound(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for r := 0; r < soak.MaxRounds; r++ {
		if err := shards[0].StepRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Ownership never migrates even when a node's position crossed the
	// cut; and with waypoint mobility over 25 rounds someone always has.
	crossed := 0
	for i, sh := range shards {
		for _, v := range sh.Owned {
			if got := sh.owners[v]; int(got) != i {
				t.Fatalf("owned node %d of shard %d mapped to %d", v, i, got)
			}
			p, ok := sh.World.Pos(v)
			if !ok {
				t.Fatalf("node %d lost its position", v)
			}
			if sh.Part.Owner(p.X) != i {
				crossed++
			}
		}
	}
	if crossed == 0 {
		t.Fatal("no mover crossed a slab cut — the hand-off case was not exercised")
	}
	// Both replicas agree on every final node state (the replicated-world
	// invariant), checked through the per-node hashes of a merged run.
	ref, err := obs.RunSoak(obs.SoakConfig{N: 60, Side: 14, Seed: 3, Dmax: 3, MaxRounds: 25, Fingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	pairs := obs.AppendEngineHashes(nil, shards[0].E)
	pairs = obs.AppendEngineHashes(pairs, shards[1].E)
	if got := obs.FoldFingerprint(pairs); got != ref.Fingerprint {
		t.Fatalf("merged fingerprint %016x vs single-process %016x", got, ref.Fingerprint)
	}
	// A receiver that left a ghost sender's row computes on the frame it was
	// delivered, not on the ghost's refresh — and would not, were a retired
	// ghost's storage handed out at once.
	left, broken := ghostDeliveries(t, cfg, -1)
	t.Logf("%d receivers left a ghost sender's row and outlived its refresh", left)
	if left == 0 || broken != 0 {
		t.Fatalf("%d receivers outlived a refresh of a ghost whose row they had left, %d delivered frames were written before their receiver computed", left, broken)
	}
	// The mutation needs several senders a pool (there is one per engine
	// shard), so that one's retired frame is another's next: a larger world.
	cfg.Soak.N, cfg.Soak.Side = 300, 31
	if _, broken = ghostDeliveries(t, cfg, 0); broken == 0 {
		t.Fatal("hold 0 left every delivered ghost frame intact: the check cannot see a reused frame")
	}
	t.Logf("hold 0: %d delivered frames written before their receiver computed", broken)
}

// ghostDeliveries ticks cfg's shards in lockstep, compute timers jittered,
// and follows every frame a ghost delivered until its receiver computes:
// the message the receiver buffers — header, records and list entries —
// must still read as it did at delivery. It returns how many of those receivers meanwhile left
// the sender's row and saw its ghost refreshed, and how many deliveries
// were written over too early. hold forces the pools' hold (negative: Tc).
func ghostDeliveries(t *testing.T, cfg Config, hold int) (left, broken int) {
	t.Helper()
	type edge struct{ to, from ident.NodeID }
	type delivery struct {
		alias    *core.Message // what the receiver buffers
		snap     core.Message  // a deep copy of it taken at delivery
		ver      uint64
		computes uint64
		left     bool
	}
	trs := NewLoopback(cfg.Shards)
	shards := make([]*Shard, cfg.Shards)
	tracked := make([]map[edge]*delivery, cfg.Shards)
	for i := range shards {
		sh, err := newShard(cfg, i, trs[i], true)
		if err != nil {
			t.Fatal(err)
		}
		if hold >= 0 {
			sh.E.SetRecsHold(hold, hold)
		}
		shards[i], tracked[i] = sh, map[edge]*delivery{}
	}
	for tick := 0; tick < cfg.Soak.MaxRounds*shards[0].E.P.Tc; tick++ {
		errs := make([]error, len(shards))
		var wg sync.WaitGroup
		for i, sh := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = sh.Tick()
			}()
		}
		wg.Wait()
		for i, sh := range shards {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			// This tick's ingest is the last that could have written what a
			// receiver computing in this tick read.
			for e, d := range tracked[i] {
				if d.alias.From != d.snap.From || d.alias.GroupPrio != d.snap.GroupPrio ||
					!slices.Equal(d.alias.Recs, d.snap.Recs) || !d.alias.List.Equal(d.snap.List) {
					broken++
					delete(tracked[i], e)
				} else if sh.E.Node(e.to).Computes() != d.computes {
					delete(tracked[i], e)
				}
			}
			for _, x := range sh.ext {
				tracked[i][edge{x.To, x.From}] = &delivery{
					alias: x.Msg, snap: core.Message{From: x.Msg.From, GroupPrio: x.Msg.GroupPrio, List: x.Msg.List.Clone(), Recs: slices.Clone(x.Msg.Recs)},
					ver: x.Ver, computes: sh.E.Node(x.To).Computes(),
				}
			}
			for e, d := range tracked[i] {
				if g := sh.ghosts[e.from]; g.ver != d.ver && !d.left {
					d.left = true // not delivered the refresh: out of the row by then
					left++
				}
			}
		}
	}
	return left, broken
}

// TestPartitionEdges covers the ownership function's corner cases.
func TestPartitionEdges(t *testing.T) {
	// A node exactly on a cut belongs to the higher shard.
	p := Partition{Cuts: []float64{1, 2}}
	for _, tc := range []struct {
		x    float64
		want int
	}{{0.5, 0}, {1, 1}, {1.5, 1}, {2, 2}, {3, 2}, {-1, 0}, {math.Inf(1), 2}} {
		if got := p.Owner(tc.x); got != tc.want {
			t.Errorf("Owner(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if p.Shards() != 3 {
		t.Errorf("Shards() = %d", p.Shards())
	}
	// One shard: no cuts, everything owned by 0.
	if q := MakePartition([]float64{5, 1, 9}, 1); len(q.Cuts) != 0 || q.Owner(1e9) != 0 {
		t.Errorf("single-shard partition: %+v", q)
	}
	// Quantile balance on distinct positions.
	xs := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 0}
	q := MakePartition(xs, 2)
	lo := 0
	for _, x := range xs {
		if q.Owner(x) == 0 {
			lo++
		}
	}
	if lo != 5 {
		t.Errorf("2-way split of 10 distinct xs put %d in shard 0", lo)
	}
	// All nodes at one position: everything collapses into one shard —
	// legal (empty shards are allowed), ownership still total.
	same := []float64{4, 4, 4, 4}
	q = MakePartition(same, 3)
	for _, x := range same {
		if o := q.Owner(x); o < 0 || o > 2 {
			t.Errorf("degenerate partition Owner(%v) = %d", x, o)
		}
	}
}

// TestEmptyShard pins that a shard owning nothing still participates in
// the protocol (barrier, sync, final report) without perturbing the
// trace: with more shards than distinct x positions, some slabs are
// guaranteed empty.
func TestEmptyShard(t *testing.T) {
	soak := obs.SoakConfig{N: 20, Side: 10, Seed: 11, Dmax: 3, MaxRounds: 10, Static: true, Fingerprint: true}
	ref, got, refRecs, gotRecs := runBoth(t, soak, 8)
	assertIdentical(t, 8, ref, got, refRecs, gotRecs)
}

// TestAllNodesOneShard pins the degenerate split where one shard owns
// the whole population: a 1-shard "distributed" run has no peers, no
// boundary traffic, and an identical trace; and in any split, every
// boundary byte sent is a boundary byte received.
func TestAllNodesOneShard(t *testing.T) {
	soak := obs.SoakConfig{N: 24, Side: 10, Seed: 5, Dmax: 3, MaxRounds: 8, Fingerprint: true}
	ref, got, refRecs, gotRecs := runBoth(t, soak, 1)
	assertIdentical(t, 1, ref, got, refRecs, gotRecs)
	for _, ctr := range []string{"boundary_bytes_sent", "boundary_bytes_recv", "ext_deliveries", "ghost_updates"} {
		if n := got.Flight.Counters[ctr]; n != 0 {
			t.Errorf("1-shard run has %s = %d", ctr, n)
		}
	}
	// Accounting identity on a real split: sent ≡ received globally.
	res, err := RunLoopback(Config{Soak: soak, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sent := res.Flight.Counters["boundary_bytes_sent"]
	recv := res.Flight.Counters["boundary_bytes_recv"]
	if sent != recv {
		t.Fatalf("boundary bytes sent %d != received %d", sent, recv)
	}
}

// TestValidateRejects pins the gate on configurations the split cannot
// carry deterministically.
func TestValidateRejects(t *testing.T) {
	base := Config{Soak: obs.SoakConfig{N: 10}, Shards: 2}
	bad := []Config{
		{Soak: obs.SoakConfig{N: 10}, Shards: 0},
		{Soak: obs.SoakConfig{N: 10}, Shards: 65},
		{Soak: obs.SoakConfig{N: 10, JoinRate: 0.1}, Shards: 2},
		{Soak: obs.SoakConfig{N: 10, LeaveRate: 0.1}, Shards: 2},
		{Soak: obs.SoakConfig{N: 10, Duration: 1}, Shards: 2},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestValidateNamesUndistributedExtras pins that the sink-adjacent
// SoakConfig extras only obs.RunSoak serves are refused by name — a
// sharded run asked for them used to succeed and write nothing.
func TestValidateNamesUndistributedExtras(t *testing.T) {
	for field, soak := range map[string]obs.SoakConfig{
		"FlightEvery":    {N: 10, FlightEvery: 10},
		"WakeTrace":      {N: 10, WakeTrace: func(int, introspect.WakeRec) error { return nil }},
		"IntrospectAddr": {N: 10, IntrospectAddr: "localhost:0"},
		"Episodes":       {N: 10, Episodes: func(obs.Episode) error { return nil }},
	} {
		c := Config{Soak: soak, Shards: 2}
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s set: Validate returned %v, want an error naming the field", field, err)
		}
		if _, err := RunLoopback(c); err == nil {
			t.Errorf("%s set: RunLoopback ran", field)
		}
	}
}

// TestRunRefusesMismatchedConfigs pins the handshake: two shards started
// from scenarios that differ in a replica-defining field refuse each other
// before round 1, each with an error naming both, where they used to die
// late on an unrelated batch or barrier error or diverge.
func TestRunRefusesMismatchedConfigs(t *testing.T) {
	for _, c := range []struct {
		field  string
		change func(*obs.SoakConfig)
	}{
		{"Seed", func(s *obs.SoakConfig) { s.Seed++ }},
		{"MaxRounds", func(s *obs.SoakConfig) { s.MaxRounds++ }},
	} {
		sink := &captureSink{}
		cfgs := [2]Config{{Soak: commuterSoak(6), Shards: 2}, {Soak: commuterSoak(6), Shards: 2}}
		cfgs[0].Soak.Sink = sink
		c.change(&cfgs[1].Soak)
		trs := NewLoopback(2)
		var errs [2]error
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer trs[i].Close()
				_, errs[i] = runShard(cfgs[i], i, trs[i])
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err == nil || errors.Is(err, ErrTransportClosed) ||
				!strings.Contains(err.Error(), fmt.Sprintf("shard %d of 2", i)) || !strings.Contains(err.Error(), fmt.Sprintf("shard %d of 2", 1-i)) {
				t.Errorf("%s differs: shard %d returned %v, want a refusal naming both shards", c.field, i, err)
			}
		}
		if len(sink.recs) != 0 {
			t.Errorf("%s differs: %d rounds ran before the refusal", c.field, len(sink.recs))
		}
	}
}

// slowTransport stalls every Exchange, standing in for a slow peer.
type slowTransport struct {
	Transport
	delay time.Duration
}

func (s slowTransport) Exchange(seq uint64, out [][]byte) ([][]byte, error) {
	time.Sleep(s.delay)
	return s.Transport.Exchange(seq, out)
}

// TestArbitrateClockExcludesExchangeWait pins that an engine phase clock
// covers only that phase's own body: the barrier wait a shard spends in
// Exchange between BuildPhase and FinishTick (250 ms here) must not land
// on the arbitrate clock, which a Perfect channel keeps far below it.
func TestArbitrateClockExcludesExchangeWait(t *testing.T) {
	const shards, ticks, delay = 2, 5, 50 * time.Millisecond
	cfg := Config{Soak: commuterSoak(ticks), Shards: shards}
	trs := NewLoopback(shards)
	shs := make([]*Shard, shards)
	for i := range shs {
		sh, err := NewShard(cfg, i, slowTransport{trs[i], delay})
		if err != nil {
			t.Fatal(err)
		}
		shs[i] = sh
	}
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i, sh := range shs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < ticks && errs[i] == nil; k++ {
				errs[i] = sh.Tick()
			}
			if errs[i] != nil {
				trs[i].Close() // release the peer from the barrier
			}
		}()
	}
	wg.Wait()
	trs[0].Close()
	for i, sh := range shs {
		if errs[i] != nil {
			t.Fatalf("shard %d: %v", i, errs[i])
		}
		if got := time.Duration(sh.E.Introspect().PhaseNs(introspect.PhaseArbitrate)); got >= ticks*delay/2 {
			t.Errorf("shard %d: arbitrate clock %v over %d ticks includes the %v Exchange waits", i, got, ticks, delay)
		}
	}
}

// TestBoundaryTrafficIsDelta pins the elision: on a mostly-parked world
// the per-round boundary frames must be far fewer than the boundary
// entries (unchanged senders ship bare version headers).
func TestBoundaryTrafficIsDelta(t *testing.T) {
	soak := commuterSoak(30)
	res, err := RunLoopback(Config{Soak: soak, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	frames := res.Flight.Counters["boundary_frames"]
	elided := res.Flight.Counters["boundary_frames_elided"]
	if frames == 0 || elided == 0 {
		t.Fatalf("boundary delta path unexercised: %d frames, %d elided", frames, elided)
	}
	if elided < frames {
		t.Fatalf("mostly-parked world elided %d < framed %d — delta encoding not engaging", elided, frames)
	}
}

// TestBoundaryTrafficSublinear pins the scaling claim behind the design:
// boundary traffic follows the slab border population (O(√n) at constant
// density), not the world population. Quadrupling n must grow the
// per-tick boundary bytes by well under 4× — ~2× is the geometric
// expectation, and 3× is the failure threshold with slack for the
// discretization of who lands in the border band.
func TestBoundaryTrafficSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-thousand-node soaks")
	}
	perTick := func(n int) float64 {
		soak := obs.SoakConfig{
			N: n, Seed: 19, Dmax: 3, ActiveFraction: 0.08, MaxRounds: 12,
		}
		res, err := RunLoopback(Config{Soak: soak, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Flight.Counters["boundary_bytes_sent"]) / float64(res.Ticks)
	}
	small, large := perTick(2000), perTick(8000)
	t.Logf("boundary bytes/tick: n=2000 %.0f, n=8000 %.0f (ratio %.2f)", small, large, large/small)
	if large >= 3*small {
		t.Fatalf("boundary traffic scaled %.2f× for 4× nodes — not sublinear (%.0f vs %.0f bytes/tick)",
			large/small, small, large)
	}
}

// TestNodeIDU32Bound documents the wire assumption that NodeIDs fit u32
// (the boundary and sync codecs truncate otherwise).
func TestNodeIDU32Bound(t *testing.T) {
	var v ident.NodeID = 1<<31 + 5
	if back := ident.NodeID(uint32(v)); back != v {
		t.Fatalf("round-trip lost bits: %d vs %d", back, v)
	}
}

// failAtSink accepts records up to round failAt−1, refuses that round's,
// and remembers when the first record arrived.
type failAtSink struct {
	failAt  int
	written int
	first   time.Time
}

var errSinkFull = errors.New("sink full")

func (s *failAtSink) Write(r obs.RoundStats) error {
	if s.written == 0 {
		s.first = time.Now()
	}
	if r.Round == s.failAt {
		return errSinkFull
	}
	s.written++
	return nil
}
func (s *failAtSink) Close() error { return nil }

// TestDriversShareTheRoundTail holds both product drivers to the one
// round tail: a sink that fails at round k aborts each of them with the
// same error after k−1 records, and the set-up clock stops between the
// driver's entry and the first record's write — after the first Observe,
// before the sink sees its result.
func TestDriversShareTheRoundTail(t *testing.T) {
	drivers := []struct {
		name string
		run  func(obs.SoakConfig) (*obs.SoakResult, error)
	}{
		{"RunSoak", obs.RunSoak},
		{"RunLoopback/2", func(c obs.SoakConfig) (*obs.SoakResult, error) { return RunLoopback(Config{Soak: c, Shards: 2}) }},
		{"RunLoopback/3", func(c obs.SoakConfig) (*obs.SoakResult, error) { return RunLoopback(Config{Soak: c, Shards: 3}) }},
	}
	const failAt = 4
	var errs []string
	for _, d := range drivers {
		sink := &failAtSink{failAt: failAt}
		cfg := commuterSoak(8)
		cfg.Sink = sink
		res, err := d.run(cfg)
		if !errors.Is(err, errSinkFull) || res != nil {
			t.Fatalf("%s: (%v, %v), want no result and the sink's error", d.name, res, err)
		}
		if sink.written != failAt-1 {
			t.Errorf("%s: %d records written before the abort, want %d", d.name, sink.written, failAt-1)
		}
		errs = append(errs, err.Error())

		sink = &failAtSink{}
		cfg.Sink = sink
		entry := time.Now()
		res, err = d.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if res.Setup <= 0 || entry.Add(res.Setup).After(sink.first) {
			t.Errorf("%s: set-up %v, first record written %v after entry: the clock must stop before the first Sink.Write",
				d.name, res.Setup, sink.first.Sub(entry))
		}
	}
	for i, e := range errs {
		if e != errs[0] {
			t.Errorf("%s aborts with %q, %s with %q", drivers[i].name, e, drivers[0].name, errs[0])
		}
	}
}
