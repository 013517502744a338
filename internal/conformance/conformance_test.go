// Package conformance is the differential test suite pinning the hot-path
// rewrites (the CSR graph and the allocation-light compute phase) to the
// retained reference implementations. It drives whole engines over
// churning walled mobile worlds with the SelfCheck oracle armed on every
// shard's scratch — each Compute cross-validates the flat-record priority
// learning and each BuildMessage the record assembly against the verbatim
// map-based originals (core/reference.go) — while the topology every round is
// compared against a brute-force rebuild on the map-of-maps reference
// graph (graph.Ref). Round-by-round records (messages, views,
// Ω-partitions via obs, metric records via the brute-force snapshot
// path) are asserted bit-identical between the sequential and the
// 4-worker executions.
package conformance

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/space"
)

// scenario is the shared churning walled mobile world: random-waypoint
// motion, a wall splitting the arena, nodes joining and leaving.
type scenario struct {
	w     *space.World
	e     *engine.Engine
	churn *rand.Rand
	next  ident.NodeID
}

func newScenario(workers int, selfCheck bool) *scenario {
	w := space.NewWorld(2.5)
	w.SetWalls([]space.Segment{
		{A: space.Point{X: 10, Y: 0}, B: space.Point{X: 10, Y: 14}},
		{A: space.Point{X: 10, Y: 16}, B: space.Point{X: 10, Y: 30}},
	})
	ids := make([]ident.NodeID, 80)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	m := &mobility.Waypoint{Side: 24, SpeedMin: 0.5, SpeedMax: 2, Pause: 1}
	topo := engine.NewSpatialTopology(w, m, 0.2, ids, rand.New(rand.NewSource(11)))
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 11, Workers: workers}, topo)
	e.SetSelfCheck(selfCheck)
	return &scenario{w: w, e: e, churn: rand.New(rand.NewSource(13)), next: 500}
}

// newTracker attaches the tracker every scenario run observes through;
// TestBorrowedGraphMatchesHeldSnapshot swaps it.
var newTracker = obs.NewGroupTracker

// step applies one round of churn and advances one full round.
func (s *scenario) step(r int) {
	if r%6 == 2 {
		order := s.e.Order()
		v := order[s.churn.Intn(len(order))]
		s.e.RemoveNode(v)
		s.w.Remove(v)
	}
	if r%4 == 1 {
		v := s.next
		s.next++
		s.w.Place(v, space.Point{X: s.churn.Float64() * 24, Y: s.churn.Float64() * 24})
		s.e.AddNode(v)
	}
	s.e.StepRound()
}

// roundRec is everything one observed round must agree on across
// executions: per-node protocol state and broadcasts (hashed), the
// Ω-partition statistics, and the traffic counters.
type roundRec struct {
	StateHash uint64
	MsgHash   uint64
	Stats     obs.RoundStats
	Msgs      uint64
	Bytes     uint64
	Delivs    uint64
}

// record captures one observed round of e.
func record(e *engine.Engine, st obs.RoundStats) roundRec {
	sh, mh := hashRound(e)
	reg := e.Introspect()
	return roundRec{
		StateHash: sh, MsgHash: mh, Stats: st,
		Msgs:   reg.Get(introspect.CtrMessagesSent),
		Bytes:  reg.Get(introspect.CtrBytesSent),
		Delivs: reg.Get(introspect.CtrDeliveries),
	}
}

// fmtState is the fmt rendering of a node's state line, the one
// core.Node.AppendState must reproduce byte for byte.
func fmtState(n *core.Node) string {
	v := n.ID()
	return fmt.Sprintf("%d|%s|%v|%s|%s|%d\n", v, n.List(), n.View(), n.Priority(), n.GroupPriority(), n.QuarantineOf(v))
}

// hashRound hashes every node's state line and broadcast. It is called on
// every observed round of every scenario of the suite — churn, walls,
// chaos faults, slot recycling — so it is also where the allocation-free
// rendering the run fingerprints hash (core.Node.AppendState) is held
// equal to the fmt one over all those states.
func hashRound(e *engine.Engine) (state, msgs uint64) {
	hs, hm := fnv.New64a(), fnv.New64a()
	var line []byte
	for _, v := range e.Order() {
		n := e.Node(v)
		want := fmtState(n)
		if line = n.AppendState(line[:0]); string(line) != want {
			panic(fmt.Sprintf("AppendState of %v renders %q, fmt renders %q", v, line, want))
		}
		hs.Write(line)
		m := n.BuildMessage()
		p, g, q := m.PrioMaps()
		fmt.Fprintf(hm, "%d|%s|%s|%d\n", m.From, m.List, m.GroupPrio, m.EncodedSize())
		for _, id := range sortedKeys(p) {
			fmt.Fprintf(hm, "p%d=%s g%s q%d\n", id, p[id], g[id], q[id])
		}
	}
	return hs.Sum64(), hm.Sum64()
}

func sortedKeys[V any](m map[ident.NodeID]V) []ident.NodeID {
	out := make([]ident.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// run executes the scenario for the given number of rounds and returns
// the per-round records.
func run(t *testing.T, workers, rounds int, selfCheck bool) []roundRec {
	t.Helper()
	s := newScenario(workers, selfCheck)
	tr := newTracker(s.e)
	recs := make([]roundRec, 0, rounds)
	for r := 0; r < rounds; r++ {
		s.step(r)
		recs = append(recs, record(s.e, tr.Observe()))
	}
	return recs
}

// TestNewPathMatchesReferenceOracle runs the churning scenario with the
// engine's SelfCheck armed: any divergence between the allocation-light
// compute/broadcast paths and the retained map-based reference
// implementations panics inside the run. The records double as the
// sequential baseline for the parallel test below.
func TestNewPathMatchesReferenceOracle(t *testing.T) {
	recs := run(t, 1, 60, true)
	if len(recs) != 60 {
		t.Fatalf("got %d records", len(recs))
	}
}

// TestSeqAndParallelBitIdentical asserts the full per-round record stream
// — protocol state, broadcast contents, Ω-partition statistics, traffic
// counters — is bit-identical between the sequential execution and the
// 4-worker execution, with the reference oracle armed on both.
func TestSeqAndParallelBitIdentical(t *testing.T) {
	seq := run(t, 1, 60, true)
	par := run(t, 4, 60, true)
	for r := range seq {
		if !reflect.DeepEqual(seq[r], par[r]) {
			t.Fatalf("round %d diverged:\nseq: %+v\npar: %+v", r+1, seq[r], par[r])
		}
	}
}

// TestSelfCheckIsPureObserver asserts the oracle cross-checks do not
// perturb the execution: records with and without SelfCheck are equal.
func TestSelfCheckIsPureObserver(t *testing.T) {
	plain := run(t, 4, 40, false)
	checked := run(t, 4, 40, true)
	if !reflect.DeepEqual(plain, checked) {
		t.Fatal("SelfCheck changed the execution")
	}
}

// TestGraphMatchesBruteForceReference rebuilds, every round, the
// symmetric communication graph by brute force on the retained
// map-of-maps reference implementation (all-pairs CanReach in both
// directions, the seed's definition) and asserts the engine's CSR
// snapshot graph — nodes, edges, and every neighbor slice — matches it.
func TestGraphMatchesBruteForceReference(t *testing.T) {
	s := newScenario(1, false)
	for r := 0; r < 40; r++ {
		s.step(r)
		g := s.e.SnapshotGraph()
		ref := graph.NewRef()
		ids := s.w.Nodes()
		for _, v := range ids {
			if s.e.Node(v) != nil {
				ref.AddNode(v)
			}
		}
		for i, u := range ids {
			if s.e.Node(u) == nil {
				continue
			}
			for _, v := range ids[i+1:] {
				if s.e.Node(v) == nil {
					continue
				}
				if s.w.CanReach(u, v) && s.w.CanReach(v, u) {
					ref.AddEdge(u, v)
				}
			}
		}
		if !ref.SameAs(g) {
			t.Fatalf("round %d: CSR graph diverged from brute-force reference: %s vs n=%d m=%d",
				r+1, g, ref.NumNodes(), ref.NumEdges())
		}
		for _, v := range ref.Nodes() {
			want := ref.Neighbors(v)
			got := g.NeighborsView(v)
			if len(want) != len(got) {
				t.Fatalf("round %d: neighbor count of %v: %v vs %v", r+1, v, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("round %d: neighbors of %v diverged: %v vs %v", r+1, v, got, want)
				}
			}
		}
	}
}

// commuterScenario is the mostly-parked regime: 8% of the population
// commutes (random waypoint), the rest stay parked, membership is fixed —
// exactly the conditions under which space.SymmetricGraph patches the
// previous CSR through graph.ApplyDelta on every round instead of
// rebuilding. It pins the delta-incremental graph inside a whole engine.
func commuterScenario(workers int, selfCheck bool) *engine.Engine {
	w := space.NewWorld(2.5)
	ids := make([]ident.NodeID, 150)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	m := &mobility.Commuter{Side: 33, SpeedMin: 0.5, SpeedMax: 2, Pause: 1, ActiveFraction: 0.08}
	topo := engine.NewSpatialTopology(w, m, 0.2, ids, rand.New(rand.NewSource(19)))
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 19, Workers: workers}, topo)
	e.SetSelfCheck(selfCheck)
	return e
}

// commuterRun observes 40 rounds of the commuter scenario.
func commuterRun(workers int, selfCheck bool) []roundRec {
	e := commuterScenario(workers, selfCheck)
	tr := newTracker(e)
	recs := make([]roundRec, 0, 40)
	for r := 0; r < 40; r++ {
		e.StepRound()
		recs = append(recs, record(e, tr.Observe()))
	}
	return recs
}

// TestDeltaGraphMatchesBruteForceReference rebuilds the symmetric graph by
// brute force on the map-of-maps reference every round of the commuter
// scenario and asserts the engine's patched CSR matches — nodes, edges,
// and every neighbor row.
func TestDeltaGraphMatchesBruteForceReference(t *testing.T) {
	e := commuterScenario(1, false)
	w := e.Topo.(*engine.SpatialTopology).World
	for r := 0; r < 50; r++ {
		e.StepRound()
		g := e.SnapshotGraph()
		ref := graph.NewRef()
		ids := w.Nodes()
		for _, v := range ids {
			ref.AddNode(v)
		}
		for i, u := range ids {
			for _, v := range ids[i+1:] {
				if w.CanReach(u, v) && w.CanReach(v, u) {
					ref.AddEdge(u, v)
				}
			}
		}
		if !ref.SameAs(g) {
			t.Fatalf("round %d: patched CSR diverged from brute-force reference: %s vs n=%d m=%d",
				r+1, g, ref.NumNodes(), ref.NumEdges())
		}
		for _, v := range ref.Nodes() {
			want := ref.Neighbors(v)
			got := g.NeighborsView(v)
			if len(want) != len(got) {
				t.Fatalf("round %d: neighbor count of %v: %v vs %v", r+1, v, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("round %d: neighbors of %v diverged: %v vs %v", r+1, v, got, want)
				}
			}
		}
	}
}

// chaosRun drives the walled churning scenario with the deterministic
// fault injector armed on top — crash-recovery with corrupted reloads,
// Byzantine liars, a burst-lossy channel, flapping neighborhoods — and
// the engine's SelfCheck oracle on or off. It pins the acceptance
// criterion that phase-aligned injection preserves the seq-vs-parallel
// equality. Besides the per-round records it returns the flight recorder's
// final counter block (wake histogram included). A jitteredHold jitters
// the compute timers — in lockstep every receiver of a broadcast computes
// before its sender replaces it — and overrides the ticks a replaced
// broadcast's records, and after them its list's entries, sit out of the
// engine's pools (negative or absent: Tc).
func chaosRun(t *testing.T, workers, rounds int, selfCheck bool, jitteredHold ...int) ([]roundRec, map[string]uint64) {
	t.Helper()
	w := space.NewWorld(2.5)
	ids := make([]ident.NodeID, 60)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	m := &mobility.Waypoint{Side: 20, SpeedMin: 0.5, SpeedMax: 2, Pause: 1}
	topo := engine.NewSpatialTopology(w, m, 0.2, ids, rand.New(rand.NewSource(29)))
	prof, err := fault.Preset("mixed", 1)
	if err != nil {
		t.Fatal(err)
	}
	prof.Seed = 31
	prof.Flap = fault.FlapConfig{Rate: 0.04, DownRounds: 5, MaxStorm: 3}
	e := engine.New(engine.Params{
		Cfg:     core.Config{Dmax: 3},
		Channel: prof.NewChannel(nil),
		Seed:    29,
		Workers: workers,
		Jitter:  len(jitteredHold) > 0,
	}, topo)
	e.SetSelfCheck(selfCheck)
	holds := [2]int{e.P.Tc, e.P.Tc}
	for i, h := range jitteredHold {
		if h >= 0 {
			holds[i] = h
		}
	}
	e.SetRecsHold(holds[0], holds[1])
	positions := map[ident.NodeID]space.Point{}
	inj := fault.NewInjector(prof, e, fault.Hooks{
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
	tr := newTracker(e)
	recs := make([]roundRec, 0, rounds)
	for r := 1; r <= rounds; r++ {
		inj.Apply(r)
		e.StepRound()
		recs = append(recs, record(e, tr.Observe()))
	}
	if inj.FaultsInjected == 0 {
		t.Fatal("chaos conformance run injected no faults — the comparison is vacuous")
	}
	return recs, e.Introspect().Snapshot().Counters
}

// TestChaosSeqAndParallelBitIdentical asserts the full record stream is
// bit-identical between the sequential and the 4-worker execution with
// the fault injector armed and the reference oracles on — fault
// injection is phase-aligned and coordinator-side, so it must not
// perturb the determinism contract.
func TestChaosSeqAndParallelBitIdentical(t *testing.T) {
	seq, _ := chaosRun(t, 1, 80, true)
	par, _ := chaosRun(t, 4, 80, true)
	for r := range seq {
		if !reflect.DeepEqual(seq[r], par[r]) {
			t.Fatalf("round %d diverged:\nseq: %+v\npar: %+v", r+1, seq[r], par[r])
		}
	}
}

// TestScratchCarriesNoState pins the ownership rule of core.Scratch —
// nothing in it is read before it is written within one call — on the
// engine's shared per-shard scratches: with SelfCheck armed every node
// scribbles garbage over every buffer of its shard's scratch after each
// compute and each inbox digest, so the next node of the shard starts from
// a poisoned one. The same arming poisons a replaced broadcast's records,
// and the entries of its list if the commit moved it, the moment the
// engine's pools may hand them to another node of the shard (DESIGN.md
// §2.3, pools: a retired broadcast is dead), which the second pass, on jittered timers,
// covers. The churning chaos run must not notice: state
// and broadcast hashes, Ω statistics, and every registry counter (the wake
// histogram among them) equal an unscribbled twin's, at 1 and 4 workers.
func TestScratchCarriesNoState(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, hold := range [][]int{nil, {-1}} {
			clean, cleanCtr := chaosRun(t, workers, 80, false, hold...)
			dirty, dirtyCtr := chaosRun(t, workers, 80, true, hold...)
			for r := range clean {
				if !reflect.DeepEqual(clean[r], dirty[r]) {
					t.Fatalf("workers=%d hold=%v round %d diverged:\nclean:     %+v\nscribbled: %+v", workers, hold, r+1, clean[r], dirty[r])
				}
			}
			if !reflect.DeepEqual(cleanCtr, dirtyCtr) {
				t.Fatalf("workers=%d hold=%v registry diverged:\nclean:     %v\nscribbled: %v", workers, hold, cleanCtr, dirtyCtr)
			}
			if cleanCtr["skips_memo"] == 0 {
				t.Fatal("no memo replay — InboxReadDigest's scratch use went unexercised")
			}
		}
	}
}

// TestRetiredRecsHeldTooShortIsCaught is the mutation check of "retired
// records are dead": with the pool's hold period forced from Tc to 0, a
// replaced broadcast is poisoned, and built into again, while receivers
// that have not computed since its last delivery still read it, so the
// scribbled run must panic in an oracle or leave the clean run's trace.
// Tc−1 must still pass: the tick of slack the derivation claims.
func TestRetiredRecsHeldTooShortIsCaught(t *testing.T) {
	heldTooShortIsCaught(t, 0)
}

// TestRetiredListHeldTooShortIsCaught is its twin for the entries of a
// replaced list, the records keeping their Tc: same derivation, same slack.
func TestRetiredListHeldTooShortIsCaught(t *testing.T) {
	heldTooShortIsCaught(t, 1)
}

// heldTooShortIsCaught shortens the hold of one pool: 0 records, 1 entries.
func heldTooShortIsCaught(t *testing.T, pool int) {
	const tc = 2 // the engine's default compute period, which chaosRun keeps
	clean, _ := chaosRun(t, 1, 80, false, -1)
	scribbled := func(hold int) (recs []roundRec, panicked any) {
		defer func() { panicked = recover() }()
		holds := []int{-1, -1}
		holds[pool] = hold
		recs, _ = chaosRun(t, 1, 80, true, holds...)
		return recs, nil
	}
	if recs, p := scribbled(0); p == nil && reflect.DeepEqual(clean, recs) {
		t.Fatal("hold 0 went unnoticed: no receiver outlives a replacement here, or the poison is not armed")
	}
	if recs, p := scribbled(tc - 1); p != nil || !reflect.DeepEqual(clean, recs) {
		t.Fatalf("hold Tc-1 diverged (panic: %v): Tc leaves no slack", p)
	}
}

// TestDeltaGraphSeqAndParallelBitIdentical asserts the commuter scenario's
// full record stream is bit-identical between the sequential and 4-worker
// executions with the reference oracles armed — the delta patch path under
// the same determinism contract as everything else.
func TestDeltaGraphSeqAndParallelBitIdentical(t *testing.T) {
	seq := commuterRun(1, true)
	par := commuterRun(4, true)
	for r := range seq {
		if !reflect.DeepEqual(seq[r], par[r]) {
			t.Fatalf("round %d diverged:\nseq: %+v\npar: %+v", r+1, seq[r], par[r])
		}
	}
}

// TestFingerprintIsFoldOfFmtLines rebuilds an engine's fingerprint the way
// every pinned one was made — FNV-1a of each node's fmt-rendered state
// line, folded in ascending ID order through hash/fnv — and requires the
// allocation-free path (AppendState lines, inline FNV-1a) to return it.
func TestFingerprintIsFoldOfFmtLines(t *testing.T) {
	s := newScenario(1, false)
	for r := 0; r < 12; r++ {
		s.step(r)
	}
	fold := fnv.New64a()
	for _, v := range s.e.Order() { // ascending
		h := fnv.New64a()
		h.Write([]byte(fmtState(s.e.Node(v))))
		var b [12]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		binary.LittleEndian.PutUint64(b[4:], h.Sum64())
		fold.Write(b[:])
	}
	if got, want := obs.EngineFingerprint(s.e), fold.Sum64(); got != want {
		t.Fatalf("EngineFingerprint %016x, fold of the fmt lines %016x", got, want)
	}
}

// TestSpatialDeterminismWallsAsymLoss extends the determinism contract to
// asymmetric links, which the radio layer models: a large mobile world
// with obstacle walls over a fault.AsymLoss channel — every directed link
// with its own fixed loss probability — must produce bit-identical
// traces at 1, 2 and 4 workers (the sharded SymmetricGraph build runs
// with the engine's own fan-out width via engine.New).
func TestSpatialDeterminismWallsAsymLoss(t *testing.T) {
	run := func(workers int) ([]roundRec, uint64) {
		w := space.NewWorld(3)
		w.Walls = []space.Segment{
			{A: space.Point{X: 10, Y: 0}, B: space.Point{X: 10, Y: 30}},
			{A: space.Point{X: 0, Y: 15}, B: space.Point{X: 30, Y: 15}},
		}
		ids := make([]ident.NodeID, 150)
		for i := range ids {
			ids[i] = ident.NodeID(i + 1)
		}
		topo := engine.NewSpatialTopology(w, &mobility.Waypoint{Side: 30, SpeedMin: 0.5, SpeedMax: 3, Pause: 0.5},
			0.2, ids, rand.New(rand.NewSource(5)))
		ch := &fault.AsymLoss{MaxP: 0.8, Seed: 5}
		e := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 11, Workers: workers, Channel: ch}, topo)
		var out []roundRec
		for r := 0; r < 12; r++ {
			e.StepRound()
			out = append(out, record(e, obs.RoundStats{}))
		}
		return out, ch.DroppedDeliveries()
	}
	want, drops := run(1)
	if drops == 0 {
		t.Fatal("the asymmetric channel dropped nothing — the check is vacuous")
	}
	for _, workers := range []int{2, 4} {
		got, d := run(workers)
		if d != drops {
			t.Fatalf("workers=%d: %d drops, want %d", workers, d, drops)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("workers=%d: round %d diverges:\ngot  %+v\nwant %+v", workers, r+1, got[r], want[r])
			}
		}
	}
}
