package conformance

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/introspect"
	"repro/internal/obs"
)

// These tests pin the activity-driven compute skip (engine phase 5) to
// the eager execution: Engine.SetSkipMode(true, false) disables the skip,
// and the full per-round record stream — protocol state, broadcast contents,
// Ω-partition statistics, traffic counters — must be bit-identical with
// it on and off, sequentially and at 4 workers, on both the churning
// walled world and the mostly-parked commuter world. They also assert the
// skip actually engages (a conformance pass that silently never skips
// proves nothing).

// computeMode selects which layers of the skip predicate a differential
// run leaves enabled.
type computeMode struct{ eager, disableMemo bool }

var (
	modeEager   = computeMode{eager: true}       // every compute executed
	modeNoMemo  = computeMode{disableMemo: true} // version-grained skip only
	modeDefault = computeMode{}                  // skip + fixpoint memo
)

// runMode is run() with the oracle off and the compute mode explicit; it
// also returns the engine's compute counters and the memoized-replay
// count.
func runMode(t *testing.T, workers, rounds int, m computeMode) (recs []roundRec, ran, skipped int, memo uint64) {
	t.Helper()
	s := newScenario(workers, false)
	s.e.SetSkipMode(m.eager, m.disableMemo)
	tr := obs.NewGroupTracker(s.e)
	for r := 0; r < rounds; r++ {
		s.step(r)
		recs = append(recs, record(s.e, tr.Observe()))
	}
	ran, skipped, memo = computeCounters(s.e)
	return recs, ran, skipped, memo
}

// computeCounters reads the executed, skipped and memo-replayed compute
// counts off the flight recorder.
func computeCounters(e *engine.Engine) (ran, skipped int, memo uint64) {
	reg := e.Introspect()
	return int(reg.Get(introspect.CtrComputesRun)), int(reg.Get(introspect.CtrComputesSkipped)),
		reg.Get(introspect.CtrSkipMemo)
}

// runCommuterMode is the same over the commuter scenario (fixed
// membership, 92% parked — the regime the skip is built for).
func runCommuterMode(t *testing.T, workers, rounds int, m computeMode) (recs []roundRec, ran, skipped int, memo uint64) {
	t.Helper()
	e := commuterScenario(workers, false)
	e.SetSkipMode(m.eager, m.disableMemo)
	tr := obs.NewGroupTracker(e)
	for r := 0; r < rounds; r++ {
		e.StepRound()
		recs = append(recs, record(e, tr.Observe()))
	}
	ran, skipped, memo = computeCounters(e)
	return recs, ran, skipped, memo
}

func assertSameStream(t *testing.T, name string, a, b []roundRec) {
	t.Helper()
	for r := range a {
		if !reflect.DeepEqual(a[r], b[r]) {
			t.Fatalf("%s: round %d diverged:\na: %+v\nb: %+v", name, r+1, a[r], b[r])
		}
	}
}

// TestSkipMatchesEagerCompute pins the skip on the churning walled world:
// eager and default executions produce bit-identical record streams, the
// eager run never skips, and the default run does.
func TestSkipMatchesEagerCompute(t *testing.T) {
	eager, _, eSkipped, _ := runMode(t, 1, 60, modeEager)
	def, dRan, dSkipped, _ := runMode(t, 1, 60, modeDefault)
	assertSameStream(t, "eager vs default", eager, def)
	if eSkipped != 0 {
		t.Fatalf("eager run skipped %d computes", eSkipped)
	}
	if dSkipped == 0 {
		t.Fatal("default run never skipped — the fast path is dead and this test proves nothing")
	}
	t.Logf("churning world: ran %d, skipped %d (%.1f%%)", dRan, dSkipped,
		100*float64(dSkipped)/float64(dRan+dSkipped))
}

// TestSkipMatchesEagerComputeParallel crosses the modes with the worker
// count: eager-sequential, default-sequential and default-4-workers must
// agree record for record.
func TestSkipMatchesEagerComputeParallel(t *testing.T) {
	eagerSeq, _, _, _ := runMode(t, 1, 40, modeEager)
	defSeq, _, _, _ := runMode(t, 1, 40, modeDefault)
	defPar, _, skipped, _ := runMode(t, 4, 40, modeDefault)
	assertSameStream(t, "eager-seq vs default-seq", eagerSeq, defSeq)
	assertSameStream(t, "default-seq vs default-par", defSeq, defPar)
	if skipped == 0 {
		t.Fatal("parallel default run never skipped")
	}
}

// TestCommuterSkipMatchesEagerCompute pins the skip in its target regime:
// the mostly-parked commuter world, where after convergence the parked
// majority must be carried by skips while the commuters keep computing —
// and the trace must still be bit-identical to the eager execution at
// any worker count.
func TestCommuterSkipMatchesEagerCompute(t *testing.T) {
	eager, eRan, _, _ := runCommuterMode(t, 1, 40, modeEager)
	def, dRan, dSkipped, _ := runCommuterMode(t, 1, 40, modeDefault)
	defPar, _, _, _ := runCommuterMode(t, 4, 40, modeDefault)
	assertSameStream(t, "eager vs default", eager, def)
	assertSameStream(t, "default-seq vs default-par", def, defPar)
	if dSkipped == 0 {
		t.Fatal("commuter run never skipped")
	}
	if dRan+dSkipped != eRan {
		t.Fatalf("compute boundaries diverged: eager ran %d, default ran %d + skipped %d",
			eRan, dRan, dSkipped)
	}
	frac := float64(dSkipped) / float64(dRan+dSkipped)
	t.Logf("commuter world: ran %d, skipped %d (%.1f%%)", dRan, dSkipped, 100*frac)
	if frac < 0.2 {
		t.Fatalf("skip fraction %.1f%% — the parked majority is not being skipped", 100*frac)
	}
}

// TestMemoMatchesDisabled is the differential proof the tentpole hangs
// on (ISSUE 9, DESIGN.md §2.3): with the fixpoint memo force-disabled vs
// enabled, the full per-round record stream — protocol state, broadcast
// contents, Ω-partition statistics, traffic counters — must be
// bit-identical on the churning walled world. A memoized replay advances
// the compute counter that feeds boundary-memory expiry jitter, so any
// drift in counter bookkeeping shows up here as a diverging trace the
// round a hold expires early or late. The memo run must actually replay
// through the memo, or the test proves nothing.
func TestMemoMatchesDisabled(t *testing.T) {
	off, oRan, oSkipped, oMemo := runMode(t, 1, 60, modeNoMemo)
	on, nRan, nSkipped, nMemo := runMode(t, 1, 60, modeDefault)
	assertSameStream(t, "memo-off vs memo-on", off, on)
	if oMemo != 0 {
		t.Fatalf("memo-less run recorded %d memoized replays", oMemo)
	}
	if nMemo == 0 {
		t.Fatal("memo run never replayed through the memo — the new class is dead and this test proves nothing")
	}
	if oRan+oSkipped != nRan+nSkipped {
		t.Fatalf("compute boundaries diverged: off %d+%d, on %d+%d", oRan, oSkipped, nRan, nSkipped)
	}
	t.Logf("churning world: memo replays %d (runs %d → %d)", nMemo, oRan, nRan)
}

// TestCommuterMemoMatchesDisabled crosses the memo with the worker count
// in its target regime: memo-off-sequential, memo-on-sequential and
// memo-on-4-workers must agree record for record, and the memo must
// carry a visible share of the replays (the re-probe wakes it was built
// to absorb).
func TestCommuterMemoMatchesDisabled(t *testing.T) {
	off, oRan, _, _ := runCommuterMode(t, 1, 40, modeNoMemo)
	on, nRan, _, nMemo := runCommuterMode(t, 1, 40, modeDefault)
	onPar, pRan, _, pMemo := runCommuterMode(t, 4, 40, modeDefault)
	assertSameStream(t, "memo-off vs memo-on", off, on)
	assertSameStream(t, "memo-on-seq vs memo-on-par", on, onPar)
	if nMemo == 0 {
		t.Fatal("commuter memo run never replayed through the memo")
	}
	if pRan != nRan || pMemo != nMemo {
		t.Fatalf("worker count changed the memo outcome: seq ran %d memo %d, par ran %d memo %d",
			nRan, nMemo, pRan, pMemo)
	}
	t.Logf("commuter world: memo replays %d (runs %d → %d)", nMemo, oRan, nRan)
}
