package obs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/shard"
	"repro/internal/space"
)

// SoakConfig parameterizes a long mobile-churn run: a random-waypoint
// world at constant density (optionally with an urban wall grid), nodes
// joining and leaving, the tracker observing every round, records
// streaming to a sink. Everything is deterministic for a fixed seed and
// any worker count; only the wall-clock duration cap makes a run
// machine-dependent (use MaxRounds for reproducible runs).
type SoakConfig struct {
	N    int // initial population (default 500)
	Dmax int // group diameter bound (default 3)

	Range float64 // radio range (default 2.5)
	Side  float64 // world side; 0 derives constant density from N
	Urban bool    // add a Manhattan-style wall grid
	DT    float64 // simulated seconds per tick (default 0.2)

	Seed    int64
	Workers int

	// JoinRate and LeaveRate are per-round probabilities of one node
	// joining (at a uniform position) and one leaving (uniform choice).
	JoinRate  float64
	LeaveRate float64

	// ActiveFraction selects the mobility regime: 0 or ≥1 runs the
	// classic all-moving random waypoint; a value in (0,1) runs the
	// mostly-parked commuter model with that fraction of movers — the
	// regime where the spatial index patches the previous CSR through
	// graph.ApplyDelta every round instead of rebuilding, so long soaks
	// exercise the delta path under the race detector.
	ActiveFraction float64

	// Static freezes mobility (uniform initial scatter, no movement):
	// chaos runs use it to isolate fault-driven disturbances from
	// mobility-driven ones.
	Static bool

	// Channel overrides the engine's radio model (default Perfect). When
	// nil and a Fault profile schedules channel adversities, the profile's
	// stack is built automatically.
	Channel radio.Channel

	// Fault arms the deterministic fault injector with the given profile;
	// the convergence monitor then measures a stabilization episode per
	// fault burst (see Monitor).
	Fault *fault.Profile
	// ConfirmWindow is the monitor's confirmation window (0 selects
	// DefaultConfirmWindow).
	ConfirmWindow int
	// Episodes receives each closed episode record (optional — e.g.
	// JSONLSink.WriteEpisode). Errors abort the run like sink errors.
	Episodes func(Episode) error

	MaxRounds int           // stop after this many rounds (default 1000)
	Duration  time.Duration // optional wall-clock cap

	Sink          Sink                       // optional per-round record stream
	Progress      func(r int, st RoundStats) // optional progress callback
	ProgressEvery int                        // rounds between callbacks (default 500)

	// IntrospectAddr, when non-empty, serves the engine's flight recorder
	// live for the duration of the run: net/http/pprof plus the registry
	// snapshot as JSON (see introspect.Serve).
	IntrospectAddr string

	// FlightEvery streams a flight-recorder snapshot record into Sink
	// every k rounds (plus one final snapshot at run end), when the sink
	// can carry them (FlightWriter — JSONL, not CSV). 0 disables.
	FlightEvery int

	// WakeTrace receives every attributed wake (round, record) — e.g.
	// wrapping JSONLSink.WriteWake. Arming it enables the engine's wake
	// ring; errors abort the run like sink errors. The per-cause
	// histogram counters are always on regardless.
	WakeTrace func(round int, w introspect.WakeRec) error

	// Fingerprint computes the end-of-run state fingerprint (the fold of
	// every node's state hash) into SoakResult.Fingerprint — the
	// value a distributed run (internal/dist) must reproduce exactly.
	Fingerprint bool
}

func (c *SoakConfig) normalize() {
	if c.N <= 0 {
		c.N = 500
	}
	if c.Dmax <= 0 {
		c.Dmax = 3
	}
	if c.Range <= 0 {
		c.Range = 2.5
	}
	if c.Side <= 0 {
		// Constant density: mean symmetric degree ≈ 2.7 at range 2.5
		// (the E7c regime).
		c.Side = math.Max(10, 2.7*math.Sqrt(float64(c.N))*c.Range/2.5)
	}
	if c.DT <= 0 {
		c.DT = 0.2
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 1000
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 500
	}
}

// SoakResult is the final report of a soak run. The violation counters
// are cross-checked against an independent accumulation of the per-round
// records — any drift between the stream and the tracker's cumulative
// state fails the run.
type SoakResult struct {
	Rounds int
	Ticks  int

	Joined int
	Left   int

	ConvergedRounds  int     // rounds with ΠA ∧ ΠS ∧ ΠM
	AgreementRounds  int     // rounds with ΠA
	MeanSafetyRate   float64 // mean per-round ΠS group freshness
	MeanGroups       float64
	ContinuityBreaks int // rounds with ΠC false
	TopologyBreaks   int // rounds with ΠT false
	UnexcusedBreaks  int // ΠC false while ΠT held — contract violations
	ViolatingNodes   int // total nodes that lost a group member

	// Chaos aggregates (zero when no Fault profile was armed).
	FaultsInjected   int     // fault events the injector emitted
	NodesAffected    int     // nodes those events touched
	Episodes         int     // stabilization episodes closed
	EpisodesOpen     int     // episodes still open at run end (0 or 1)
	MeanStabRounds   float64 // mean stabilization time over closed episodes
	MaxStabRounds    int     // worst stabilization time
	EpisodeUnexcused int     // unexcused breaks inside episodes
	UnexcusedOutside int     // unexcused breaks with no episode open

	Final       RoundStats
	Elapsed     time.Duration
	TicksPerSec float64
	// Setup is the cold start: entry of the run to the end of the first
	// round's Observe (world, first graph, engine, tracker, first round).
	Setup time.Duration

	// Flight is the final flight-recorder snapshot: the run's complete
	// deterministic counter block (computes, skips by class, wake-cause
	// histogram, cache hits, drops, injections) plus the wall-clock phase
	// timings in their separate section.
	Flight introspect.Snapshot

	// Fingerprint is the end-of-run state fingerprint (0 unless
	// SoakConfig.Fingerprint was set).
	Fingerprint uint64

	safetySum, groupSum float64 // running sums behind the two means
}

// fold accumulates one observed round.
func (r *SoakResult) fold(st RoundStats) {
	r.Rounds++
	if st.Converged {
		r.ConvergedRounds++
	}
	if st.Agreement {
		r.AgreementRounds++
	}
	if !st.Continuity {
		r.ContinuityBreaks++
		if st.Topological {
			r.UnexcusedBreaks++
		}
	}
	if !st.Topological {
		r.TopologyBreaks++
	}
	r.ViolatingNodes += st.ContinuityViolations
	r.safetySum += st.SafetyRate
	r.groupSum += float64(st.Groups)
	r.Final = st
}

// Report renders the human-readable final report.
func (r *SoakResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: %d rounds (%d ticks) in %s, %.0f ticks/s, set-up %.2f s\n",
		r.Rounds, r.Ticks, r.Elapsed.Round(time.Millisecond), r.TicksPerSec, r.Setup.Seconds())
	fmt.Fprintf(&b, "  population: %d nodes (+%d joined, -%d left), %d groups, %d singletons, mean size %.2f\n",
		r.Final.Nodes, r.Joined, r.Left, r.Final.Groups, r.Final.Singletons, r.Final.MeanSize)
	fmt.Fprintf(&b, "  legitimacy: ΠA %d/%d rounds, ΠA∧ΠS∧ΠM %d/%d rounds, mean ΠS group freshness %.1f%%\n",
		r.AgreementRounds, r.Rounds, r.ConvergedRounds, r.Rounds, 100*r.MeanSafetyRate)
	fmt.Fprintf(&b, "  best effort: %d ΠC breaks over %d topology breaks, %d violating nodes, %d unexcused\n",
		r.ContinuityBreaks, r.TopologyBreaks, r.ViolatingNodes, r.UnexcusedBreaks)
	if r.FaultsInjected > 0 {
		fmt.Fprintf(&b, "  chaos: %d faults over %d nodes, %d episodes closed (%d open), stabilization mean %.1f / max %d rounds, unexcused %d in-episode + %d outside\n",
			r.FaultsInjected, r.NodesAffected, r.Episodes, r.EpisodesOpen,
			r.MeanStabRounds, r.MaxStabRounds, r.EpisodeUnexcused, r.UnexcusedOutside)
		if r.Final.RadioDrops > 0 {
			fmt.Fprintf(&b, "  radio: %d deliveries suppressed by the channel\n", r.Final.RadioDrops)
		}
	}
	if c := r.Flight.Counters; c != nil {
		run, skip := c["computes_run"], c["computes_skipped"]
		if total := run + skip; total > 0 {
			fmt.Fprintf(&b, "  compute: %d run / %d skipped (%.1f%% skip: fixpoint %d, lonely %d, held %d)\n",
				run, skip, 100*float64(skip)/float64(total),
				c["skips_fixpoint"], c["skips_lonely"], c["skips_held"])
		}
		if run > 0 {
			fmt.Fprintf(&b, "  wakes:")
			for cause := introspect.WakeCause(0); cause < introspect.NumWakeCauses; cause++ {
				if n := c[cause.Counter().String()]; n > 0 {
					fmt.Fprintf(&b, " %s %.1f%%", cause, 100*float64(n)/float64(run))
				}
			}
			fmt.Fprintf(&b, " (of %d computes)\n", run)
		}
	}
	return b.String()
}

// IdleReport renders, for each phase the engine fans out over the shards,
// the time its participants spent outside a shard item, per round:
// Width(workers)·PhaseNs − BusyNs, the phase's serial part included.
func (r *SoakResult) IdleReport(workers int) string {
	if r.Rounds == 0 {
		return ""
	}
	width := shard.Width(workers)
	perRound := func(ns int64) float64 { return float64(ns) / 1e6 / float64(r.Rounds) }
	var b strings.Builder
	fmt.Fprintf(&b, "  idle at width %d, ms/round of width × phase:", width)
	for k, p := range introspect.FanOutPhases {
		ph, busy := r.Flight.PhaseNs[p.String()], r.Flight.BusyNs[p.String()]
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " %s %.3f of %.3f", p, perRound(int64(width)*ph-busy), perRound(int64(width)*ph))
	}
	b.WriteString("\n")
	return b.String()
}

// PoolReport renders the broadcast pools' misses, the takes that found
// nothing ripe and so allocated or spent a first-round header, per message
// build: a deterministic count of the storage the pools did not recycle.
func (r *SoakResult) PoolReport() string {
	c := r.Flight.Counters
	msgs, ents, builds := c["msg_pool_misses"], c["ents_pool_misses"], c["msg_builds"]
	if builds == 0 {
		return ""
	}
	return fmt.Sprintf("  pools: %d message and %d entry misses over %d builds, %.4f a build\n",
		msgs, ents, builds, float64(msgs+ents)/float64(builds))
}

// SweepReport renders, per observation, the rows the tracker's phase 2
// examined (registry obs_rows_swept), then the ΠM verdicts its cache
// reused and its BFS settled (obs_pairs_reused, obs_pairs_bfs).
func (r *SoakResult) SweepReport() string {
	c := r.Flight.Counters
	if c["obs_rounds"] == 0 {
		return ""
	}
	return fmt.Sprintf("  tracker: %d rows swept over %d observations, %.1f an observation; ΠM verdicts: %d reused, %d by BFS\n",
		c["obs_rows_swept"], c["obs_rounds"], float64(c["obs_rows_swept"])/float64(c["obs_rounds"]), c["obs_pairs_reused"], c["obs_pairs_bfs"])
}

// BuildSoakWorld constructs the soak scenario's world, mobility model
// and initial population — the exact construction RunSoak performs, as
// a shared seam: a distributed run (internal/dist) must replicate the
// identical world in every shard process from the same config, so the
// construction must live in exactly one place. It normalizes cfg in
// place (idempotent).
func BuildSoakWorld(cfg *SoakConfig) (*space.World, mobility.Model, []ident.NodeID) {
	cfg.normalize()
	w := space.NewWorld(cfg.Range)
	w.Workers = cfg.Workers // before the first graph: its scan is as wide as every later one
	if cfg.Urban {
		block := math.Max(8, cfg.Side/6)
		for x := block; x < cfg.Side; x += block {
			for y := 0.0; y < cfg.Side; y += block {
				w.Walls = append(w.Walls,
					space.Segment{A: space.Point{X: x, Y: y + 1}, B: space.Point{X: x, Y: y + block - 1}},
					space.Segment{A: space.Point{X: y + 1, Y: x}, B: space.Point{X: y + block - 1, Y: x}})
			}
		}
	}
	ids := make([]ident.NodeID, cfg.N)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	var mob mobility.Model = &mobility.Waypoint{Side: cfg.Side, SpeedMin: 0.5, SpeedMax: 2, Pause: 1}
	if cfg.ActiveFraction > 0 && cfg.ActiveFraction < 1 {
		mob = &mobility.Commuter{Side: cfg.Side, SpeedMin: 0.5, SpeedMax: 2, Pause: 1,
			ActiveFraction: cfg.ActiveFraction}
	}
	if cfg.Static {
		mob = &mobility.Static{Side: cfg.Side}
	}
	return w, mob, ids
}

// RunSoak executes one soak run. It returns an error only on sink
// failures or counter drift; protocol-level violations are reported, not
// fatal (the unexcused counter is the caller's assertion surface).
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	entry := time.Now()
	w, mob, ids := BuildSoakWorld(&cfg)
	ch := cfg.Channel
	if ch == nil && cfg.Fault != nil {
		ch = cfg.Fault.NewChannel(nil)
	}
	topo := engine.NewSpatialTopology(w, mob, cfg.DT, ids, rand.New(rand.NewSource(cfg.Seed)))
	e := engine.New(engine.Params{
		Cfg:     core.Config{Dmax: cfg.Dmax},
		Channel: ch,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
	}, topo)
	d := &Driver{Engine: e, Tracker: NewGroupTracker(e)}
	churn := rand.New(rand.NewSource(cfg.Seed ^ 0x50a4))
	nextID := ident.NodeID(cfg.N + 1)

	// Live introspection: pprof + the registry JSON for the run's
	// lifetime. The server reads the registry through atomics only, so it
	// never perturbs the deterministic trace.
	if cfg.IntrospectAddr != "" {
		srv, err := introspect.Serve(cfg.IntrospectAddr, e.Introspect())
		if err != nil {
			return nil, fmt.Errorf("soak: introspect: %w", err)
		}
		defer srv.Close()
	}
	if cfg.WakeTrace != nil {
		e.TraceWakes(true)
	}

	// Chaos: the injector applies the fault schedule at each round
	// boundary (phase-aligned, coordinator-side — see internal/fault);
	// the monitor folds the tracker's record stream into stabilization
	// episodes. The flap hooks remember a victim's position so its
	// correlated rejoin returns it to the same spot.
	if cfg.Fault != nil {
		positions := make(map[ident.NodeID]space.Point)
		d.inj = fault.NewInjector(cfg.Fault, e, fault.Hooks{
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
		d.mon = NewMonitor(cfg.ConfirmWindow)
		d.mon.Aftershocks = true
	}

	d.Step = func(r int, res *SoakResult) error {
		// Churn before the round: the topology advances over the change
		// before the next observation (the tracker's contract).
		if cfg.LeaveRate > 0 && churn.Float64() < cfg.LeaveRate {
			order := e.Order()
			if len(order) > 2 {
				v := order[churn.Intn(len(order))]
				e.RemoveNode(v)
				w.Remove(v)
				res.Left++
			}
		}
		if cfg.JoinRate > 0 && churn.Float64() < cfg.JoinRate {
			v := nextID
			nextID++
			w.Place(v, space.Point{X: churn.Float64() * cfg.Side, Y: churn.Float64() * cfg.Side})
			e.AddNode(v)
			res.Joined++
		}
		if d.inj != nil {
			for range d.inj.Apply(r) {
				d.mon.RecordFault(r)
			}
		}
		e.StepRound()
		return nil
	}
	d.Close = func(res *SoakResult) error {
		if cfg.Fingerprint {
			res.Fingerprint = EngineFingerprint(e)
		}
		return nil
	}
	return d.Run(&cfg, entry)
}

// Driver is what differs between the drivers of a soak run — RunSoak in
// one process, a shard of internal/dist in many: how a round is stepped
// and how the run ends. Run is everything they share.
type Driver struct {
	// Engine is this process's engine: the tick count, the flight recorder
	// and the wake ring are read from it.
	Engine *engine.Engine
	// Tracker observes every stepped round. Nil on a non-lead shard, which
	// steps, closes and has no result.
	Tracker *GroupTracker
	// Step advances the run by round r, up to the state Tracker observes.
	Step func(r int, res *SoakResult) error
	// Close runs once after the last round, before the result is closed:
	// the fingerprint, and on a shard the final exchange.
	Close func(res *SoakResult) error

	inj *fault.Injector // RunSoak's chaos pair, nil together
	mon *Monitor
}

// Run is the soak round loop and the run's close. cfg must be normalized
// (BuildSoakWorld does it); entry is when the driver's set-up began.
func (d *Driver) Run(cfg *SoakConfig, entry time.Time) (*SoakResult, error) {
	e, tr, inj, mon := d.Engine, d.Tracker, d.inj, d.mon
	var flightSink FlightWriter
	if cfg.FlightEvery > 0 {
		flightSink, _ = cfg.Sink.(FlightWriter)
	}
	res := &SoakResult{}
	start := time.Now()
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}

	for r := 1; r <= cfg.MaxRounds; r++ {
		if err := d.Step(r, res); err != nil {
			return nil, err
		}
		if tr == nil {
			continue
		}
		st := tr.Observe()
		if r == 1 {
			res.Setup = time.Since(entry)
		}
		if cfg.WakeTrace != nil {
			var werr error
			e.DrainWakes(func(wakes []introspect.WakeRec) {
				for _, w := range wakes {
					if werr = cfg.WakeTrace(r, w); werr != nil {
						return
					}
				}
			})
			if werr != nil {
				return nil, fmt.Errorf("soak: wake trace: %w", werr)
			}
		}
		if cfg.Sink != nil {
			if err := cfg.Sink.Write(st); err != nil {
				return nil, fmt.Errorf("soak: sink: round %d: %w", r, err)
			}
		}
		if flightSink != nil && r%cfg.FlightEvery == 0 {
			if err := flightSink.WriteFlight(NewFlightRecord(r, e)); err != nil {
				return nil, fmt.Errorf("soak: flight sink: %w", err)
			}
		}
		if mon != nil {
			if ep, closed := mon.ObserveRound(st, inj.Active()); closed && cfg.Episodes != nil {
				if err := cfg.Episodes(ep); err != nil {
					return nil, fmt.Errorf("soak: episode sink: %w", err)
				}
			}
		}
		res.fold(st)
		// Last in the round: callers time rounds from it.
		if cfg.Progress != nil && r%cfg.ProgressEvery == 0 {
			cfg.Progress(r, st)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
	}

	if err := d.Close(res); err != nil || tr == nil {
		return nil, err
	}
	if inj != nil {
		res.FaultsInjected = inj.FaultsInjected
		res.NodesAffected = inj.NodesAffected
		res.Episodes = mon.Episodes
		if mon.Open() != nil {
			res.EpisodesOpen = 1
		}
		res.MeanStabRounds = mon.MeanStabRounds()
		res.MaxStabRounds = mon.MaxStabRounds
		res.EpisodeUnexcused = mon.TotalUnexcused
		res.UnexcusedOutside = mon.UnexcusedOutside
	}
	if flightSink != nil {
		if err := flightSink.WriteFlight(NewFlightRecord(res.Rounds, e)); err != nil {
			return nil, fmt.Errorf("soak: flight sink: %w", err)
		}
	}
	res.Ticks = e.Tick()
	res.Elapsed = time.Since(start)
	if s := res.Elapsed.Seconds(); s > 0 {
		res.TicksPerSec = float64(res.Ticks) / s
	}
	if res.Rounds > 0 {
		res.MeanSafetyRate = res.safetySum / float64(res.Rounds)
		res.MeanGroups = res.groupSum / float64(res.Rounds)
	}
	reg := e.Introspect()
	res.Flight = reg.Snapshot()

	// Chaos cross-check: the registry counts injections at the emission
	// site inside the injector; its totals must match the injector's own
	// plain-field accumulation exactly, or the flight recorder is lying
	// about the fault schedule (nightly chaos gates on this error).
	if inj != nil {
		if got, want := reg.Get(introspect.CtrFaultsInjected), uint64(inj.FaultsInjected); got != want {
			return res, fmt.Errorf("soak: flight-recorder drift: faults_injected %d vs injector %d", got, want)
		}
		if got, want := reg.Get(introspect.CtrFaultNodesAffected), uint64(inj.NodesAffected); got != want {
			return res, fmt.Errorf("soak: flight-recorder drift: fault_nodes_affected %d vs injector %d", got, want)
		}
	}

	// Drift check: the tracker's cumulative counters must equal the
	// independent accumulation over the streamed records. The first
	// observation is transition-free on both sides.
	if res.ContinuityBreaks != tr.ContinuityBreaks ||
		res.TopologyBreaks != tr.TopologyBreaks ||
		res.UnexcusedBreaks != tr.UnexcusedBreaks ||
		res.ViolatingNodes != tr.ViolatingNodes {
		return res, fmt.Errorf(
			"soak: violation-counter drift: stream (ΠC %d, ΠT %d, unexcused %d, nodes %d) vs tracker (ΠC %d, ΠT %d, unexcused %d, nodes %d)",
			res.ContinuityBreaks, res.TopologyBreaks, res.UnexcusedBreaks, res.ViolatingNodes,
			tr.ContinuityBreaks, tr.TopologyBreaks, tr.UnexcusedBreaks, tr.ViolatingNodes)
	}
	return res, nil
}
