package conformance

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/mobility"
	"repro/internal/space"
)

// registryCounters runs the churning walled scenario under a tracker and
// returns the flight recorder's deterministic counter block, the
// tracker's obs_* counters included.
func registryCounters(workers, rounds int) map[string]uint64 {
	s := newScenario(workers, false)
	tr := newTracker(s.e)
	for r := 0; r < rounds; r++ {
		s.step(r)
		tr.Observe()
	}
	return s.e.Introspect().Snapshot().Counters
}

// acrossWidths are the worker counts a determinism pin compares against
// the sequential run: width 2, the benchmark's, three times — which
// participant claims which shard differs from run to run, and the
// repeats are what exercise that — then 3 and 4.
var acrossWidths = []int{2, 2, 2, 3, 4}

// TestRegistryBitIdenticalAcrossWorkers pins the flight recorder's
// deterministic section to the engine's worker-count invariance
// guarantee: every counter — computes, per-class skips, the wake-cause
// histogram, the message/receiver cache hits, deliveries and elisions —
// must be bit-identical between the sequential and every parallel
// execution of the same churning scenario. (The wall-clock phase timings
// live in a separate registry section precisely because they cannot
// satisfy this.)
func TestRegistryBitIdenticalAcrossWorkers(t *testing.T) {
	seq := registryCounters(1, 60)
	if seq["obs_rows_swept"] == 0 {
		t.Fatal("the tracker swept no row — its counters are not exercised")
	}
	for _, workers := range acrossWidths {
		if par := registryCounters(workers, 60); !reflect.DeepEqual(seq, par) {
			t.Fatalf("registry diverged at %d workers:\nseq: %v\npar: %v", workers, seq, par)
		}
	}
}

// TestBusyWithinWidthTimesPhase checks the wall-clock section's busy
// accumulators: each fanned-out phase's shard items took some time, and
// no more than the phase's wall time at every participant of its width.
func TestBusyWithinWidthTimesPhase(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := newScenario(workers, false)
		for r := 0; r < 20; r++ {
			s.step(r)
		}
		reg := s.e.Introspect()
		for _, p := range introspect.FanOutPhases {
			busy, ph := reg.BusyNs(p), reg.PhaseNs(p)
			if busy <= 0 || busy > int64(workers)*ph {
				t.Errorf("workers %d, %s: busy %d ns, phase %d ns: want 0 < busy ≤ %d·phase", workers, p, busy, ph, workers)
			}
		}
	}
}

// TestRegistryBitIdenticalOnDeltaPath repeats the invariance check on the
// mostly-parked commuter scenario — the regime where the skip predicate
// elides most computes and the graph is patched through ApplyDelta — so
// the skip-class and wake-cause counters are exercised, not just the
// always-compute ones.
func TestRegistryBitIdenticalOnDeltaPath(t *testing.T) {
	run := func(workers int) map[string]uint64 {
		e := commuterScenario(workers, false)
		for r := 0; r < 50; r++ {
			e.StepRound()
		}
		return e.Introspect().Snapshot().Counters
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("registry diverged across workers on the delta path:\nseq: %v\npar: %v", seq, par)
	}
	if seq["computes_skipped"] == 0 {
		t.Fatal("commuter scenario skipped nothing — the skip-counter check is vacuous")
	}
	if seq["graph_delta_rounds"] == 0 {
		t.Fatal("commuter scenario never took the delta path — wrong regime")
	}
}

// wakeScenario is the commuter world with the compute mode selectable:
// the wake-attribution accounting must close in every mode (under eager
// compute the skip-eligible boundaries execute as quiet replays).
func wakeScenario(mode computeMode) *engine.Engine {
	w := space.NewWorld(2.5)
	ids := make([]ident.NodeID, 150)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	m := &mobility.Commuter{Side: 33, SpeedMin: 0.5, SpeedMax: 2, Pause: 1, ActiveFraction: 0.08}
	topo := engine.NewSpatialTopology(w, m, 0.2, ids, rand.New(rand.NewSource(19)))
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 19, Workers: 4}, topo)
	e.SetSkipMode(mode.eager, mode.disableMemo)
	return e
}

// TestWakeHistogramAccountsAllComputes asserts every executed compute is
// attributed to exactly one wake cause: the per-cause histogram sums to
// computes_run, with and without the activity skip. It also cross-checks
// the traced wake stream (the -trace-wakes records) against the
// histogram counters.
func TestWakeHistogramAccountsAllComputes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		eager bool
	}{{"skip", false}, {"eager", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := wakeScenario(computeMode{eager: tc.eager})
			e.TraceWakes(true)
			traced := make(map[introspect.WakeCause]uint64)
			for r := 0; r < 50; r++ {
				e.StepRound()
				e.DrainWakes(func(wakes []introspect.WakeRec) {
					for _, w := range wakes {
						traced[w.Cause]++
					}
				})
			}
			c := e.Introspect().Snapshot().Counters
			var sum uint64
			for cause := introspect.WakeCause(0); cause < introspect.NumWakeCauses; cause++ {
				n := c[cause.Counter().String()]
				sum += n
				if traced[cause] != n {
					t.Errorf("wake trace %s = %d records, histogram = %d", cause, traced[cause], n)
				}
			}
			if run := c["computes_run"]; sum != run {
				t.Errorf("wake causes sum to %d, computes_run = %d — attribution leaks", sum, run)
			}
			if tc.eager {
				if c["wakes_quiet_replay"] == 0 {
					t.Error("eager mode produced no quiet replays — the mode check is vacuous")
				}
			} else {
				if c["wakes_quiet_replay"] != 0 {
					t.Errorf("skip mode attributed %d quiet replays — those boundaries should have been skipped", c["wakes_quiet_replay"])
				}
				// The fixpoint memo must engage (and the accounting still
				// close): memoized replays land in skips_memo, and the
				// signature-failed-but-content-proven computes that seed
				// them show up as memo_miss wakes.
				if c["skips_memo"] == 0 {
					t.Error("skip mode never replayed through the fixpoint memo — the memo accounting check is vacuous")
				}
				if c["wakes_memo_miss"] == 0 {
					t.Error("skip mode attributed no memo-miss wakes — version-churn re-probes are not being classified")
				}
			}
		})
	}
}

// TestSkipDecisionEqualsExplanation pins that the scheduler's skip
// decision and the recorder's wake attribution are one walk (skipGate),
// across modes: an eager run takes every decision without acting on it,
// so its wake histogram must explain a version-grained-skip run
// completely — every boundary that run replayed shows up as a quiet
// replay here, and every compute it executed carries the same cause.
// (The memo is off in the acting run: a memoized replay moves the record
// off the executed path's arm/consume sequence, so the two runs' gate
// inputs would no longer be comparable boundary by boundary.)
func TestSkipDecisionEqualsExplanation(t *testing.T) {
	counters := func(m computeMode) map[string]uint64 {
		e := wakeScenario(m)
		for r := 0; r < 80; r++ {
			e.StepRound()
		}
		return e.Introspect().Counters()
	}
	eager, acted := counters(modeEager), counters(modeNoMemo)
	for cause := introspect.WakeCause(0); cause < introspect.NumWakeCauses; cause++ {
		name := cause.Counter().String()
		if cause != introspect.WakeQuietReplay && eager[name] != acted[name] {
			t.Errorf("%s: eager %d, skipping %d", name, eager[name], acted[name])
		}
	}
	skipped := acted["computes_skipped"]
	if skipped == 0 {
		t.Fatal("the skipping run skipped nothing — the comparison is vacuous")
	}
	if got := eager["wakes_quiet_replay"]; got != skipped {
		t.Errorf("eager run explains %d boundaries as quiet replays, the skipping run replayed %d", got, skipped)
	}
	if byClass := acted["skips_fixpoint"] + acted["skips_lonely"] + acted["skips_held"]; byClass != skipped {
		t.Errorf("skip classes sum to %d, computes_skipped = %d", byClass, skipped)
	}
}
