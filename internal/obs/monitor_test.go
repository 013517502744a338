package obs

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
)

// legit/broken build the synthetic observations the unit tests feed the
// monitor: legit is the quiescent fixpoint (no membership churn, every
// group fresh, ΠC held), broken is view churn with an unexcused ΠC
// violation (topology quiet, continuity lost).
func legitStats(round int) RoundStats {
	return RoundStats{Round: round, SafetyRate: 1, Topological: true, Continuity: true}
}

func brokenStats(round int) RoundStats {
	return RoundStats{Round: round, SafetyRate: 1, MembershipChanges: 3,
		Topological: true, Continuity: false}
}

// TestMonitorSyntheticEpisode hand-drives one episode with a known
// stabilization time: a fault lands at round 10, the world is broken for
// rounds 10–12, legitimate from 13 on, window 3 — so the streak runs
// 13, 14, 15, the episode closes at 15 with StabilizedRound 13 and a
// stabilization time of 3 rounds.
func TestMonitorSyntheticEpisode(t *testing.T) {
	m := NewMonitor(3)
	for r := 1; r <= 9; r++ {
		if _, closed := m.ObserveRound(legitStats(r), false); closed {
			t.Fatalf("round %d: episode closed before any fault", r)
		}
	}
	if m.Open() != nil {
		t.Fatal("episode open before any fault")
	}

	m.RecordFault(10)
	if ep := m.Open(); ep == nil || ep.OpenedRound != 10 {
		t.Fatalf("RecordFault did not open an episode at round 10: %+v", m.Open())
	}

	var got Episode
	var closed bool
	for r := 10; r <= 20; r++ {
		st := brokenStats(r)
		if r >= 13 {
			st = legitStats(r)
		}
		if got, closed = m.ObserveRound(st, false); closed {
			if r != 15 {
				t.Fatalf("episode closed at round %d, want 15", r)
			}
			break
		}
	}
	if !closed {
		t.Fatal("episode never closed")
	}
	want := Episode{
		ID: 1, OpenedRound: 10, LastFaultRound: 10, Faults: 1,
		StabilizedRound: 13, ConfirmedRound: 15, StabilizationRounds: 3,
		ViolationRounds: 3, Unexcused: 3,
	}
	if got != want {
		t.Fatalf("episode = %+v, want %+v", got, want)
	}
	if m.Open() != nil {
		t.Fatal("episode still open after closing")
	}
	if m.Episodes != 1 || m.TotalStabRounds != 3 || m.MaxStabRounds != 3 || m.TotalUnexcused != 3 {
		t.Fatalf("aggregates: %+v", m)
	}
	if m.MeanStabRounds() != 3 {
		t.Fatalf("MeanStabRounds = %v, want 3", m.MeanStabRounds())
	}
}

// TestMonitorActiveBlocksConfirmation pins the liar semantics: while the
// injector reports an adversity in flight, legitimate rounds do not
// start the confirmation streak, so a steady lie that keeps the world in
// a plausible configuration never counts as stabilized.
func TestMonitorActiveBlocksConfirmation(t *testing.T) {
	m := NewMonitor(2)
	m.RecordFault(1)
	for r := 1; r <= 10; r++ {
		if _, closed := m.ObserveRound(legitStats(r), true); closed {
			t.Fatalf("round %d: episode closed while injector active", r)
		}
	}
	// The adversity ends: the streak may start only now.
	if _, closed := m.ObserveRound(legitStats(11), false); closed {
		t.Fatal("episode closed before the window filled")
	}
	ep, closed := m.ObserveRound(legitStats(12), false)
	if !closed {
		t.Fatal("episode did not close once the injector went quiet")
	}
	if ep.StabilizedRound != 11 || ep.StabilizationRounds != 10 {
		t.Fatalf("episode = %+v, want stabilized at 11 (stab 10)", ep)
	}
}

// TestMonitorExcusedBreaks pins the ΠT exclusion: a ΠC break while ΠT is
// itself broken is the environment's fault — it counts as a violation
// round (not legitimate: Converged false) but not as unexcused, and an
// unexcused break with no episode open lands in UnexcusedOutside.
func TestMonitorExcusedBreaks(t *testing.T) {
	m := NewMonitor(2)
	m.RecordFault(1)
	// Excused break: topology moved, continuity lost, views still churning.
	m.ObserveRound(RoundStats{Round: 1, SafetyRate: 1, MembershipChanges: 2,
		Topological: false, Continuity: false}, false)
	if m.Open().ViolationRounds != 1 || m.Open().Unexcused != 0 {
		t.Fatalf("excused break miscounted: %+v", m.Open())
	}
	// A quiescent round with an excused ΠC break is legitimate.
	m.ObserveRound(RoundStats{Round: 2, SafetyRate: 1, Topological: false, Continuity: false}, false)
	m.ObserveRound(RoundStats{Round: 3, SafetyRate: 1, Topological: true, Continuity: true}, false)
	if m.Open() != nil {
		t.Fatal("legitimate streak with an excused break did not close the episode")
	}
	// Outside any episode, an unexcused break is still surfaced.
	m.ObserveRound(brokenStats(4), false)
	if m.UnexcusedOutside != 1 {
		t.Fatalf("UnexcusedOutside = %d, want 1", m.UnexcusedOutside)
	}
}

// TestMonitorRealEpisode runs the monitor against a real engine: a
// three-node line converges, the middle node is crashed to zeroed state,
// and the episode must close with a small, pinned stabilization time.
func TestMonitorRealEpisode(t *testing.T) {
	const dmax = 3
	e := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: 1}, graph.Line(3))
	tr := NewGroupTracker(e)
	m := NewMonitor(3)

	r := 0
	for ; r < 30; r++ {
		e.StepRound()
		st := tr.Observe()
		if _, closed := m.ObserveRound(st, false); closed {
			t.Fatal("episode closed before any fault")
		}
		if st.Converged {
			break
		}
	}

	rng := rand.New(rand.NewSource(1))
	if !fault.CrashNode(e, 2, rng, false) {
		t.Fatal("CrashNode refused the middle node")
	}
	crashRound := r + 1
	m.RecordFault(crashRound)

	var ep Episode
	closed := false
	for ; r < crashRound+60; r++ {
		e.StepRound()
		st := tr.Observe()
		if ep, closed = m.ObserveRound(st, false); closed {
			break
		}
	}
	if !closed {
		t.Fatal("three-node world never re-stabilized after the crash")
	}
	if ep.Faults != 1 || ep.LastFaultRound != crashRound {
		t.Fatalf("episode bookkeeping: %+v (crash at %d)", ep, crashRound)
	}
	// A zeroed middle node on a 3-line re-converges within a handful of
	// exchange/compute cycles; pin the bound so regressions in recovery
	// latency surface here.
	if ep.StabilizationRounds <= 0 || ep.StabilizationRounds > 12 {
		t.Fatalf("stabilization took %d rounds, want 1..12 (%+v)", ep.StabilizationRounds, ep)
	}
	if m.Open() != nil {
		t.Fatal("episode still open after close")
	}
}

// TestMonitorFaultFreeSoak is the property test: a fault-free world — a
// profile armed but with every rate zero — must report zero faults, zero
// episodes, and no open episode at the end of the run.
func TestMonitorFaultFreeSoak(t *testing.T) {
	res, err := RunSoak(SoakConfig{
		N: 60, Dmax: 3, Seed: 5, Workers: 2, MaxRounds: 250, Static: true,
		Fault: &fault.Profile{Name: "quiet"},
		Episodes: func(ep Episode) error {
			t.Fatalf("fault-free run emitted an episode: %+v", ep)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected != 0 || res.Episodes != 0 || res.EpisodesOpen != 0 {
		t.Fatalf("fault-free run reports chaos: %+v", res)
	}
	if res.EpisodeUnexcused != 0 {
		t.Fatalf("fault-free run reports in-episode unexcused breaks: %+v", res)
	}
}

// TestChaosSoakDeterministicAcrossWorkers pins the acceptance criterion
// end to end: with the injector armed (crash + byzantine + burst loss),
// the entire soak result and every emitted episode record are
// bit-identical at 1 and 4 workers.
func TestChaosSoakDeterministicAcrossWorkers(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 150
	}
	run := func(workers int) string {
		prof, err := fault.Preset("mixed", 1)
		if err != nil {
			t.Fatal(err)
		}
		prof.Seed = 23
		prof.Flap = fault.FlapConfig{Rate: 0.03, DownRounds: 8, MaxStorm: 4}
		var episodes []Episode
		res, err := RunSoak(SoakConfig{
			N: 80, Dmax: 3, Seed: 13, Workers: workers,
			MaxRounds: rounds, Static: true,
			Fault: prof,
			Episodes: func(ep Episode) error {
				episodes = append(episodes, ep)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FaultsInjected == 0 {
			t.Fatal("mixed profile injected nothing — the determinism check is vacuous")
		}
		rep := *res
		rep.Elapsed, rep.TicksPerSec, rep.Setup = 0, 0, 0
		rep.Flight.PhaseNs, rep.Flight.BusyNs = nil, nil // wall-clock phase timings differ too
		b, _ := json.Marshal(struct {
			Res SoakResult
			Eps []Episode
		}{rep, episodes})
		return string(b)
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("chaos soak diverges across workers:\n w1: %s\n w4: %s", a, b)
	}
}
