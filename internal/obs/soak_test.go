package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/introspect"
)

// TestSinksRoundTrip pins the record format: JSONL decodes back to the
// same struct, and the decimating wrapper keeps every k-th record.
func TestSinksRoundTrip(t *testing.T) {
	recs := []RoundStats{
		{Round: 1, Tick: 2, Nodes: 5, Edges: 4, Groups: 2, Singletons: 1,
			MeanSize: 2.5, Agreement: true, Safety: true, Maximality: false,
			SafeGroups: 2, SafetyRate: 1, Topological: true, Continuity: true,
			ExternalEdges: 1, MessagesSent: 10, Deliveries: 8, RadioDrops: 3},
		{Round: 2, Tick: 4, Nodes: 5, Edges: 3, Groups: 3, Singletons: 2,
			MeanSize: 5.0 / 3.0, Agreement: false, Safety: false,
			SafeGroups: 2, SafetyRate: 2.0 / 3.0, Topological: false,
			Continuity: false, ContinuityViolations: 2, MembershipChanges: 3,
			ExternalEdges: 2, MessagesSent: 20, Deliveries: 15, RadioDrops: 7},
	}

	var jbuf bytes.Buffer
	js := NewJSONLSink(&jbuf, 1)
	for _, r := range recs {
		if err := js.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&jbuf)
	for i := 0; sc.Scan(); i++ {
		var got RoundStats
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != recs[i] {
			t.Fatalf("line %d: %+v != %+v", i, got, recs[i])
		}
	}

	var dbuf bytes.Buffer
	ds := Every(3, NewJSONLSink(&dbuf, 1))
	for i := 0; i < 7; i++ {
		if err := ds.Write(RoundStats{Round: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(dbuf.String(), "\n"); n != 3 {
		t.Fatalf("decimated records = %d, want 3 (rounds 1, 4, 7)", n)
	}
}

// TestSoakSmoke is the CI soak: a churning mobile world on the parallel
// engine observed every round, streaming to a JSONL sink, with the
// violation-counter drift check of RunSoak armed. Runs ~2k rounds in a
// few seconds without -race; the CI job runs it with -race where it is
// the required ~30s churn soak.
func TestSoakSmoke(t *testing.T) {
	rounds := 2000
	if testing.Short() {
		rounds = 400
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf, 256)
	res, err := RunSoak(SoakConfig{
		N:         120,
		Dmax:      3,
		Seed:      7,
		Workers:   4,
		JoinRate:  0.10,
		LeaveRate: 0.08,
		MaxRounds: rounds,
		Urban:     true,
		Sink:      sink,
	})
	if err != nil {
		t.Fatal(err) // includes the violation-counter drift check
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", res.Rounds, rounds)
	}
	if res.Final.Nodes <= 0 || res.Final.Groups <= 0 {
		t.Fatalf("degenerate final state: %+v", res.Final)
	}
	// The best-effort contract (Prop. 14, experiment E6) is asserted for
	// *formed* groups; a continuously churning population always has
	// groups mid-formation, where merge-overshoot repair can shrink a
	// view without a topology change (the E6 "bootstrap" column). Those
	// formation-phase breaks must stay rare — the bulk of the violations
	// must be excused by ΠT.
	if 20*res.UnexcusedBreaks > res.Rounds {
		t.Errorf("unexcused ΠC breaks in %d/%d rounds (>5%%)", res.UnexcusedBreaks, res.Rounds)
	}
	if n := strings.Count(buf.String(), "\n"); n != rounds {
		t.Fatalf("sink records = %d, want %d", n, rounds)
	}
	t.Logf("%s", res.Report())
}

// driftRun drives a static line through a Driver whose Step also bumps
// ctr in the registry, behind the backs of the tracker and the injector;
// chaos arms an injector with an empty profile and a monitor.
func driftRun(ctr introspect.CounterID, chaos bool) error {
	e := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 1}, graph.Line(6))
	d := &Driver{
		Engine:  e,
		Tracker: NewGroupTracker(e),
		Step: func(int, *SoakResult) error {
			e.StepRound()
			e.Introspect().Inc(ctr)
			return nil
		},
		Close: func(*SoakResult) error { return nil },
	}
	if chaos {
		d.inj, d.mon = fault.NewInjector(&fault.Profile{}, e, fault.Hooks{}), NewMonitor(0)
	}
	_, err := d.Run(&SoakConfig{MaxRounds: 5}, time.Now())
	return err
}

// The run fails when the registry's observation counters drift from the
// fold of the streamed records.
func TestDriverCatchesViolationCounterDrift(t *testing.T) {
	if err := driftRun(introspect.CtrMessagesSent, false); err != nil {
		t.Fatalf("a counter no check reads failed the run: %v", err)
	}
	for _, ctr := range []introspect.CounterID{introspect.CtrObsContinuityBreaks, introspect.CtrObsTopologyBreaks,
		introspect.CtrObsUnexcusedBreaks, introspect.CtrObsViolatingNodes} {
		if err := driftRun(ctr, false); err == nil || !strings.Contains(err.Error(), "violation-counter drift") {
			t.Errorf("%s bumped outside the tracker: Run = %v, want the violation-counter drift error", ctr, err)
		}
	}
}

// On a chaos run, the run fails when the registry's injection counters
// drift from the injector's own totals.
func TestDriverCatchesInjectionCounterDrift(t *testing.T) {
	if err := driftRun(introspect.CtrMessagesSent, true); err != nil {
		t.Fatalf("a counter no check reads failed the run: %v", err)
	}
	for _, ctr := range []introspect.CounterID{introspect.CtrFaultsInjected, introspect.CtrFaultNodesAffected} {
		if err := driftRun(ctr, true); err == nil || !strings.Contains(err.Error(), "flight-recorder drift: "+ctr.String()) {
			t.Errorf("%s bumped outside the injector: Run = %v, want its flight-recorder drift error", ctr, err)
		}
	}
}

// TestSoakDeterministicAcrossWorkers pins the whole harness — engine,
// churn, tracker — to identical reports at different worker widths, width
// 2 three times (the claiming order differs between runs).
func TestSoakDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		res, err := RunSoak(SoakConfig{
			N: 80, Dmax: 3, Seed: 11, Workers: workers,
			JoinRate: 0.15, LeaveRate: 0.12, MaxRounds: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := *res
		rep.Elapsed, rep.TicksPerSec, rep.Setup = 0, 0, 0 // wall-clock fields differ
		rep.Flight.PhaseNs, rep.Flight.BusyNs = nil, nil  // …as does the timing section
		b, _ := json.Marshal(rep)
		return string(b)
	}
	want := run(1)
	for _, workers := range []int{2, 2, 2, 3, 4} {
		if got := run(workers); got != want {
			t.Fatalf("soak diverges across workers:\n w1: %s\n w%d: %s", want, workers, got)
		}
	}
}

// TestIdleReport checks the line grpsoak -flight-every ends its report
// with: each fanned-out phase's idle time out of width × phase, which a
// shard item never exceeds.
func TestIdleReport(t *testing.T) {
	res, err := RunSoak(SoakConfig{N: 60, Seed: 3, Workers: 2, MaxRounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	line := res.IdleReport(2)
	for _, p := range introspect.FanOutPhases {
		var idle, total float64
		at := strings.Index(line, " "+p.String()+" ")
		if at < 0 {
			t.Fatalf("no %s figure in %q", p, line)
		}
		if _, err := fmt.Sscanf(line[at:], " "+p.String()+" %f of %f", &idle, &total); err != nil {
			t.Fatalf("%s in %q: %v", p, line, err)
		}
		if idle < 0 || idle > total || total <= 0 {
			t.Errorf("%s: idle %.3f of %.3f ms/round", p, idle, total)
		}
	}
}

// TestPoolReport checks the pools' line of grpsoak -flight-every: the
// first round's builds all miss, and a miss is a build's or a commit's.
func TestPoolReport(t *testing.T) {
	res, err := RunSoak(SoakConfig{N: 60, Seed: 3, MaxRounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	var msgs, ents, builds uint64
	var per float64
	line := res.PoolReport()
	if _, err := fmt.Sscanf(line, "  pools: %d message and %d entry misses over %d builds, %f a build", &msgs, &ents, &builds, &per); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	if msgs < 60 || msgs > builds || ents == 0 || builds != res.Flight.Counters["msg_builds"] {
		t.Errorf("%q: want at least the 60 first builds missed, no more misses than builds, some commits", line)
	}
}

// TestSweepReport checks the tracker's line of grpsoak -flight-every on a
// parked world (2 % movers): the first observation sweeps every row, each
// later one only the rows that changed, under a tenth of the population;
// the ΠM cache reuses more verdicts than the BFS settles.
func TestSweepReport(t *testing.T) {
	const n, rounds = 2000, 40
	res, err := RunSoak(SoakConfig{N: n, ActiveFraction: 0.02, Seed: 1, MaxRounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	var swept, obs, reused, bfs uint64
	var per float64
	line := res.SweepReport()
	if _, err := fmt.Sscanf(line, "  tracker: %d rows swept over %d observations, %f an observation; ΠM verdicts: %d reused, %d by BFS",
		&swept, &obs, &per, &reused, &bfs); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	if obs != rounds || swept < n || swept-n >= (rounds-1)*n/10 {
		t.Errorf("%q: want %d observations, the first sweeping all %d rows and the rest under a tenth each", line, rounds, n)
	}
	if bfs == 0 || reused <= bfs {
		t.Errorf("%q: want some BFS, and more verdicts reused than settled by it", line)
	}
}

// TestSoakDurationCap sanity-checks the wall-clock cap path.
func TestSoakDurationCap(t *testing.T) {
	res, err := RunSoak(SoakConfig{
		N: 40, Dmax: 3, Seed: 1, MaxRounds: 1 << 30,
		Duration: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 || res.Rounds == 1<<30 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}
