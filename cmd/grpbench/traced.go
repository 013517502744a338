package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/space"
)

// regMark is one engine's flight recorder read at a window boundary, or
// the difference of two such readings.
type regMark struct {
	counters [introspect.NumCounters]uint64
	phaseNs  [introspect.NumPhases]int64
}

func readRegMark(reg *introspect.Registry) regMark {
	var m regMark
	for id := introspect.CounterID(0); id < introspect.NumCounters; id++ {
		m.counters[id] = reg.Get(id)
	}
	for p := introspect.Phase(0); p < introspect.NumPhases; p++ {
		m.phaseNs[p] = reg.PhaseNs(p)
	}
	return m
}

// addDelta accumulates the activity between two readings of one engine;
// summed over the run's engines (one, or one per shard) it is the timed
// window's.
func (d *regMark) addDelta(from, to regMark) {
	for i := range d.counters {
		d.counters[i] += to.counters[i] - from.counters[i]
	}
	for i := range d.phaseNs {
		d.phaseNs[i] += to.phaseNs[i] - from.phaseNs[i]
	}
}

func (d *regMark) c(id introspect.CounterID) float64 { return float64(d.counters[id]) }

// tracedRun is what the benchmark's own spanned loop leaves behind: the
// spans, the window's counters, and the end state the leaf probes read.
type tracedRun struct {
	warm, rounds int
	tracers      []*tracer
	engines      []*engine.Engine
	graph        *graph.G // full-world topology graph at the end
	from, to     hostMark
	marks        [][2]regMark // per engine: at the window's start and end

	fingerprint      uint64
	stream           []byte // nil for the sharded loop (the lead tracker is unexported)
	final            obs.RoundStats
	continuityBreaks int
	unexcusedBreaks  int
	faultsInjected   int
}

// tracedSoak is obs.RunSoak's loop made by the benchmark itself — the
// same public calls in the same order — with a span around each. Its
// fingerprint and stream must equal the untraced run's.
func tracedSoak(cfg obs.SoakConfig, warm int, streamPath string) (*tracedRun, error) {
	w, mob, ids := obs.BuildSoakWorld(&cfg)
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
	tk := obs.NewGroupTracker(e)
	churn := rand.New(rand.NewSource(cfg.Seed ^ 0x50a4))
	nextID := ident.NodeID(cfg.N + 1)

	var inj *fault.Injector
	var mon *obs.Monitor
	if cfg.Fault != nil {
		positions := make(map[ident.NodeID]space.Point)
		inj = fault.NewInjector(cfg.Fault, e, fault.Hooks{
			Leave: func(v ident.NodeID) {
				if p, ok := w.Pos(v); ok {
					positions[v] = p
				}
				w.Remove(v)
			},
			Rejoin: func(v ident.NodeID) { w.Place(v, positions[v]) },
		})
		mon = obs.NewMonitor(cfg.ConfirmWindow)
		mon.Aftershocks = true
	}
	sink, err := obs.CreateJSONLSink(streamPath, 0)
	if err != nil {
		return nil, err
	}
	defer sink.Close() // error path only; the success path checks Close below

	run := &tracedRun{warm: warm, rounds: cfg.MaxRounds, engines: []*engine.Engine{e}, marks: make([][2]regMark, 1)}
	tr := newTracer(time.Now(), 0, cfg.MaxRounds*(8+4*e.P.Tc))
	run.tracers = []*tracer{tr}
	reg := e.Introspect()

	var st obs.RoundStats
	for r := 1; r <= cfg.MaxRounds; r++ {
		round := tr.begin("round", -1, r)
		if cfg.LeaveRate > 0 || cfg.JoinRate > 0 {
			s := tr.begin("churn", round, r)
			if cfg.LeaveRate > 0 && churn.Float64() < cfg.LeaveRate {
				order := e.Order()
				if len(order) > 2 {
					v := order[churn.Intn(len(order))]
					e.RemoveNode(v)
					w.Remove(v)
				}
			}
			if cfg.JoinRate > 0 && churn.Float64() < cfg.JoinRate {
				v := nextID
				nextID++
				w.Place(v, space.Point{X: churn.Float64() * cfg.Side, Y: churn.Float64() * cfg.Side})
				e.AddNode(v)
			}
			tr.end(s)
		}
		if inj != nil {
			s := tr.begin("fault.apply", round, r)
			for range inj.Apply(r) {
				mon.RecordFault(r)
			}
			tr.end(s)
		}
		for i := 0; i < e.P.Tc; i++ {
			tick := tr.begin("tick", round, r)
			s := tr.begin("engine.advance", tick, r)
			e.AdvancePhase()
			tr.end(s)
			s = tr.begin("engine.build", tick, r)
			e.BuildPhase()
			tr.end(s)
			s = tr.begin("engine.finish", tick, r)
			e.FinishTick(nil)
			tr.end(s)
			tr.end(tick)
		}
		s := tr.begin("obs.observe", round, r)
		st = tk.Observe()
		tr.end(s)
		s = tr.begin("obs.sink", round, r)
		err := sink.Write(st)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("traced soak: sink: %w", err)
		}
		if mon != nil {
			s = tr.begin("obs.monitor", round, r)
			mon.ObserveRound(st, inj.Active())
			tr.end(s)
		}
		if !st.Continuity {
			run.continuityBreaks++
			if st.Topological {
				run.unexcusedBreaks++
			}
		}
		tr.end(round)
		switch r {
		case warm:
			run.from, run.marks[0][0] = readHostMark(), readRegMark(reg)
		case cfg.MaxRounds:
			run.to, run.marks[0][1] = readHostMark(), readRegMark(reg)
		}
	}
	if err := sink.Close(); err != nil {
		return nil, fmt.Errorf("traced soak: sink: %w", err)
	}
	if run.stream, err = os.ReadFile(streamPath); err != nil {
		return nil, err
	}
	run.final = st
	run.fingerprint = obs.EngineFingerprint(e)
	run.graph = topo.Graph()
	if inj != nil {
		run.faultsInjected = inj.FaultsInjected
	}
	return run, nil
}

// spanTransport records how long a shard waits in the per-tick barrier.
type spanTransport struct {
	dist.Transport
	tr     *tracer
	parent int // the tick span in flight
	round  int
}

func (t *spanTransport) Exchange(seq uint64, out [][]byte) ([][]byte, error) {
	s := t.tr.begin("dist.exchange", t.parent, t.round)
	in, err := t.Transport.Exchange(seq, out)
	t.tr.end(s)
	return in, err
}

// tracedShards drives dist.NewShard/Shard.Tick over span-recording
// loopback transports, one goroutine per shard as dist.RunLoopback does.
// The lead's tracker and the per-round sync exchange are unexported, so
// this loop has no stats stream; its fingerprint must still equal the
// untraced run's.
func tracedShards(cfg obs.SoakConfig, shards, warm int) (*tracedRun, error) {
	dcfg := dist.Config{Soak: cfg, Shards: shards}
	origin := time.Now()
	run := &tracedRun{warm: warm, rounds: cfg.MaxRounds, marks: make([][2]regMark, shards)}
	trs := dist.NewLoopback(shards)
	wrapped := make([]*spanTransport, shards)
	shs := make([]*dist.Shard, shards)
	for i := range shs {
		tr := newTracer(origin, i, cfg.MaxRounds*8)
		run.tracers = append(run.tracers, tr)
		wrapped[i] = &spanTransport{Transport: trs[i], tr: tr}
		sh, err := dist.NewShard(dcfg, i, wrapped[i])
		if err != nil {
			return nil, err
		}
		shs[i] = sh
		run.engines = append(run.engines, sh.E)
	}

	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range shs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh, tr, wt := shs[i], run.tracers[i], wrapped[i]
			reg := sh.E.Introspect()
			for r := 1; r <= cfg.MaxRounds; r++ {
				round := tr.begin("round", -1, r)
				for t := 0; t < sh.E.P.Tc; t++ {
					tick := tr.begin("dist.tick", round, r)
					wt.parent, wt.round = tick, r
					err := sh.Tick()
					tr.end(tick)
					if err != nil {
						errs[i] = err
						trs[i].Close() // release the peers blocked on the barrier
						return
					}
				}
				tr.end(round)
				// Shard 0 reads the process-wide marks: the barrier keeps the
				// shards within a tick of each other.
				switch r {
				case warm:
					run.marks[i][0] = readRegMark(reg)
					if i == 0 {
						run.from = readHostMark()
					}
				case cfg.MaxRounds:
					run.marks[i][1] = readRegMark(reg)
					if i == 0 {
						run.to = readHostMark()
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, tr := range trs {
		tr.Close()
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("traced shards: %w", err)
		}
	}
	var pairs []obs.NodeHashPair
	for _, sh := range shs {
		pairs = obs.AppendEngineHashes(pairs, sh.E)
	}
	run.fingerprint = obs.FoldFingerprint(pairs)
	run.graph = shs[0].Topo.Graph()
	return run, nil
}

// measurePerLayer is one `-trace 1` invocation: an untraced run and the
// traced loop over the same (shortened) round count, the leaf probes on
// the traced run's end state, and trace.jsonl.
func measurePerLayer(w *workload, seed int64, seconds float64, outDir string) result {
	load := loadAvg()
	total := halfRounds(w, seconds)
	timed := total - w.warmup
	cfg := w.soak(seed, 0, total)
	ref := runSoak(cfg, w.shards, w.warmup, filepath.Join(outDir, w.name+"-stream.jsonl"))
	failed := verifyRun(cfg, &ref)
	if ref.err == nil {
		failed = append(failed, verifyPinned(w, seed, &ref)...)
	}
	attempted := 2 * total

	runtime.GC()
	var run *tracedRun
	var err error
	cfg = w.soak(seed, 0, total)
	if w.shards > 1 {
		run, err = tracedShards(cfg, w.shards, w.warmup)
	} else {
		run, err = tracedSoak(cfg, w.warmup, filepath.Join(outDir, w.name+"-traced.jsonl"))
	}
	values := map[string]float64{}
	for _, m := range perLayer {
		values[m.name] = 0
	}
	switch {
	case err != nil:
		failed = append(failed, err.Error())
	case ref.err == nil:
		// The traced loop's numbers are void unless it ran the same
		// execution as the real entry point.
		if run.fingerprint != ref.res.Fingerprint {
			failed = append(failed, fmt.Sprintf("traced: fingerprint %016x, untraced %016x", run.fingerprint, ref.res.Fingerprint))
		}
		if run.stream != nil && !bytes.Equal(run.stream, ref.stream) {
			failed = append(failed, "traced: stats stream differs from the untraced run's")
		}
	}
	if err == nil {
		layerValues(values, w, run, &ref, timed)
		probeValues(values, w, seed, 0, run)
		values["driver.loadavg_start"] = load
		header := map[string]any{
			"type": "header", "workload": w.name, "seed": seed, "warmup_rounds": w.warmup, "rounds": total,
			"fingerprint": fmt.Sprintf("%016x", run.fingerprint),
		}
		path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
		if err := writeTrace(path, header, run.tracers); err != nil {
			failed = append(failed, "trace: "+err.Error())
		}
		fmt.Printf("# %s seed %d: %d warm-up + %d timed rounds traced, spans in %s\n", w.name, seed, w.warmup, timed, path)
	}
	return report(perLayer, values, attempted, failed)
}

// layerValues derives the per-layer metrics of the timed window from the
// traced run's spans and flight-recorder deltas.
func layerValues(v map[string]float64, w *workload, run *tracedRun, ref *soakRun, timed int) {
	T := float64(timed)
	nEng := float64(len(run.engines))
	var d regMark
	for i := range run.marks {
		d.addDelta(run.marks[i][0], run.marks[i][1])
	}
	perRoundMs := func(ns int64) float64 { return float64(ns) / 1e6 / T }
	phase := func(p introspect.Phase) float64 { return perRoundMs(d.phaseNs[p]) / nEng } // mean over shards

	if w.shards > 1 {
		// Shard.Tick is one call, so the engine's own phase clocks stand in
		// for the spans a single-process loop can draw.
		v["engine.advance_ms"] = phase(introspect.PhaseAdvance)
		v["engine.build_ms"] = phase(introspect.PhaseBuild)
		// The arbitrate clock is left out: the engine threads its phase
		// mark across the split tick, so on a shard it also covers
		// routeBoundary, the Exchange wait and ingest (dist.* has those).
		v["engine.finish_ms"] = phase(introspect.PhaseDeliver) + phase(introspect.PhaseCompute)
	} else {
		tot := spanTotals(run.tracers[0].spans, run.warm)
		v["engine.advance_ms"] = perRoundMs(tot["engine.advance"])
		v["engine.build_ms"] = perRoundMs(tot["engine.build"])
		v["engine.finish_ms"] = perRoundMs(tot["engine.finish"])
		v["fault.apply_us"] = perRoundMs(tot["fault.apply"]) * 1e3
		v["obs.observe_ms"] = perRoundMs(tot["obs.observe"])
		v["obs.sink_us"] = perRoundMs(tot["obs.sink"]) * 1e3
		v["obs.monitor_us"] = perRoundMs(tot["obs.monitor"]) * 1e3
		v["driver.unattributed_ms"] = perRoundMs(selfTotal(run.tracers[0].spans, run.warm, "round", "tick"))
	}
	v["engine.ph_arbitrate_ms"] = phase(introspect.PhaseArbitrate)
	v["engine.ph_deliver_ms"] = phase(introspect.PhaseDeliver)
	v["engine.ph_compute_ms"] = phase(introspect.PhaseCompute)

	ran, skipped := d.c(introspect.CtrComputesRun), d.c(introspect.CtrComputesSkipped)
	v["engine.computes_run"] = ran / T
	v["engine.skip_share"] = ratio(skipped, ran+skipped)
	v["engine.memo_share"] = ratio(d.c(introspect.CtrSkipMemo), ran+skipped)
	v["engine.compute_us_per_executed"] = ratio(float64(d.phaseNs[introspect.PhaseCompute])/1e3, ran)
	v["engine.deliveries"] = d.c(introspect.CtrDeliveries) / T
	v["engine.elided_share"] = ratio(d.c(introspect.CtrDeliveriesElided), d.c(introspect.CtrDeliveries))
	v["engine.msg_cache_hit_share"] = ratio(d.c(introspect.CtrMsgCacheHits), d.c(introspect.CtrMessagesSent))
	recv := d.c(introspect.CtrRecvCacheHits) + d.c(introspect.CtrRecvRowHits) + d.c(introspect.CtrRecvRowRefills) + d.c(introspect.CtrRecvRebuilds)
	v["engine.recv_cache_hit_share"] = ratio(d.c(introspect.CtrRecvCacheHits), recv)
	v["engine.graph_full_round_share"] = ratio(d.c(introspect.CtrGraphFullRounds), d.c(introspect.CtrTicks))
	v["core.air_bytes_per_msg"] = ratio(d.c(introspect.CtrBytesSent), d.c(introspect.CtrMessagesSent))
	v["radio.drop_share"] = ratio(d.c(introspect.CtrRadioDrops), d.c(introspect.CtrDeliveries)+d.c(introspect.CtrRadioDrops))
	v["fault.injected"] = float64(run.faultsInjected)

	if run.stream != nil {
		v["obs.sink_bytes"] = float64(len(run.stream)) / float64(run.rounds)
		v["obs.groups_final"] = float64(run.final.Groups)
		v["obs.continuity_break_rounds"] = float64(run.continuityBreaks)
		v["obs.unexcused_breaks"] = float64(run.unexcusedBreaks)
	} else if ref.err == nil {
		// The sharded loop has no tracker of its own; the simulated
		// statistics are the untraced run's (same execution, by fingerprint).
		v["obs.sink_bytes"] = float64(len(ref.stream)) / float64(ref.rounds)
		v["obs.groups_final"] = float64(ref.res.Final.Groups)
		v["obs.continuity_break_rounds"] = float64(ref.res.ContinuityBreaks)
		v["obs.unexcused_breaks"] = float64(ref.res.UnexcusedBreaks)
	}

	tracedRounds := roundDurations(run.tracers[0].spans, run.warm)
	if w.shards > 1 {
		distValues(v, run, &d, T)
		if ref.err == nil {
			v["dist.lead_sync_ms"] = median(ref.timed.roundMs) - median(tracedRounds)
		}
	}
	var tracedWall float64
	for _, x := range tracedRounds {
		tracedWall += x
	}
	if ref.err == nil {
		hostTimeValues(v, ref)
	}
	if ref.err == nil && tracedWall > 0 {
		v["driver.trace_overhead_share"] = 1 - (T/(tracedWall/1e3))/ref.timed.roundsPerS()
	}
	v["driver.gc_pause_ms"] = float64(run.to.gcPauseNs-run.from.gcPauseNs) / 1e6 / T
	v["driver.gc_cycles"] = float64(run.to.gcCycles - run.from.gcCycles)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["driver.heap_live_mb_end"] = float64(ms.HeapAlloc) / (1 << 20)
}

// distValues fills the shard-boundary metrics: per shard, then max and
// min over shards.
func distValues(v map[string]float64, run *tracedRun, d *regMark, T float64) {
	var tick, wait, busy, self []float64
	var unattributed int64
	for i, tr := range run.tracers {
		tot := spanTotals(tr.spans, run.warm)
		var eng int64 // engine work inside Tick; see layerValues for why arbitrate is not in it
		for _, p := range []introspect.Phase{introspect.PhaseAdvance, introspect.PhaseBuild, introspect.PhaseDeliver, introspect.PhaseCompute} {
			eng += run.marks[i][1].phaseNs[p] - run.marks[i][0].phaseNs[p]
		}
		tick = append(tick, float64(tot["dist.tick"])/1e6/T)
		wait = append(wait, float64(tot["dist.exchange"])/1e6/T)
		busy = append(busy, float64(tot["dist.tick"]-tot["dist.exchange"])/1e6/T)
		self = append(self, float64(tot["dist.tick"]-tot["dist.exchange"]-eng)/1e6/T)
		unattributed = max(unattributed, selfTotal(tr.spans, run.warm, "round"))
	}
	v["dist.tick_ms_min"], v["dist.tick_ms_max"] = minMax(tick)
	v["dist.exchange_wait_ms_min"], v["dist.exchange_wait_ms_max"] = minMax(wait)
	_, v["dist.boundary_self_ms"] = minMax(self)
	lo, hi := minMax(busy)
	v["dist.shard_imbalance"] = ratio(hi, lo)
	v["dist.boundary_bytes"] = d.c(introspect.CtrBoundaryBytesSent) / T
	frames, elided := d.c(introspect.CtrBoundaryFrames), d.c(introspect.CtrBoundaryFramesElided)
	v["dist.frames_elided_share"] = ratio(elided, frames+elided)
	v["dist.ext_deliveries"] = d.c(introspect.CtrExtDeliveries) / T
	// Inside a tick everything is attributed by construction (boundary
	// self time is the residual), so only the round span's own time is
	// left over.
	v["driver.unattributed_ms"] = float64(unattributed) / 1e6 / T
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0 // not Linux: the load is context, not a measurement
	}
	var one float64
	fmt.Sscan(string(b), &one)
	return one
}
