package conformance

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ident"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/space"
)

// These tests pin the inbox-signature incarnation stamping (senderVer.gen)
// across roster slot recycling. The eager execution never reads a
// signature, so it is the oracle: if a removed-and-readded node — whose
// state version counter restarts from scratch — or a different node
// recycling the departed one's slot could ever produce an inbox signature
// equal to the old occupant's, the skip (or the memo) would replay a
// round whose inbox actually changed, and the record stream would diverge
// from the eager run within a round or two.

// recycleScenario is a walled world whose churn deliberately aims at the
// aliasing hazards: the same victim is removed and re-added a few rounds
// later (same ID, restarted version counter, well inside a boundary-hold
// window), and a brand-new node is inserted in between so the freed slot
// is recycled by a *different* ID first.
type recycleScenario struct {
	w       *space.World
	e       *engine.Engine
	rng     *rand.Rand
	next    ident.NodeID
	victim  ident.NodeID
	parked  space.Point
	pending bool
}

func newRecycleScenario(workers int) *recycleScenario {
	w := space.NewWorld(2.5)
	w.SetWalls([]space.Segment{
		{A: space.Point{X: 10, Y: 0}, B: space.Point{X: 10, Y: 14}},
		{A: space.Point{X: 10, Y: 16}, B: space.Point{X: 10, Y: 30}},
	})
	ids := make([]ident.NodeID, 40)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	m := &mobility.Waypoint{Side: 24, SpeedMin: 0.5, SpeedMax: 2, Pause: 1}
	topo := engine.NewSpatialTopology(w, m, 0.2, ids, rand.New(rand.NewSource(23)))
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 23, Workers: workers}, topo)
	return &recycleScenario{w: w, e: e, rng: rand.New(rand.NewSource(29)), next: 900}
}

func (s *recycleScenario) step(r int) {
	switch r % 5 {
	case 1:
		order := s.e.Order()
		s.victim = order[s.rng.Intn(len(order))]
		s.parked = space.Point{X: s.rng.Float64() * 24, Y: s.rng.Float64() * 24}
		s.e.RemoveNode(s.victim)
		s.w.Remove(s.victim)
		s.pending = true
	case 2:
		// A fresh ID claims the freed slot before the victim returns, so
		// the re-add below lands on a different slot than it held.
		v := s.next
		s.next++
		s.w.Place(v, space.Point{X: s.rng.Float64() * 24, Y: s.rng.Float64() * 24})
		s.e.AddNode(v)
	case 3:
		if s.pending {
			// Same ID back, version counter restarted, two rounds after
			// departure — deep inside any hold its neighbors armed.
			s.w.Place(s.victim, s.parked)
			s.e.AddNode(s.victim)
			s.pending = false
		}
	}
	s.e.StepRound()
}

func runRecycleMode(t *testing.T, workers, rounds int, m computeMode) (recs []roundRec, skipped int, memo uint64) {
	t.Helper()
	s := newRecycleScenario(workers)
	s.e.SetSkipMode(m.eager, m.disableMemo)
	tr := obs.NewGroupTracker(s.e)
	for r := 0; r < rounds; r++ {
		s.step(r)
		recs = append(recs, record(s.e, tr.Observe()))
	}
	_, skipped, memo = computeCounters(s.e)
	return recs, skipped, memo
}

// TestSlotRecycleSignatures runs the recycling churn in every compute
// mode and worker count and demands bit-identical record streams, with
// both fast paths demonstrably engaged.
func TestSlotRecycleSignatures(t *testing.T) {
	const rounds = 60
	eager, eSkipped, _ := runRecycleMode(t, 1, rounds, modeEager)
	noMemo, _, _ := runRecycleMode(t, 1, rounds, modeNoMemo)
	def, dSkipped, dMemo := runRecycleMode(t, 1, rounds, modeDefault)
	defPar, _, pMemo := runRecycleMode(t, 4, rounds, modeDefault)
	assertSameStream(t, "eager vs no-memo", eager, noMemo)
	assertSameStream(t, "eager vs default", eager, def)
	assertSameStream(t, "default-seq vs default-par", def, defPar)
	if eSkipped != 0 {
		t.Fatalf("eager run skipped %d computes", eSkipped)
	}
	if dSkipped == 0 {
		t.Fatal("recycling run never skipped — the hazard path was not exercised")
	}
	if dMemo == 0 {
		t.Fatal("recycling run never memoized — the hazard path was not exercised")
	}
	if pMemo != dMemo {
		t.Fatalf("worker count changed memo replays: seq %d, par %d", dMemo, pMemo)
	}
	t.Logf("recycling churn: skipped %d, memo replays %d", dSkipped, dMemo)
}
