package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
)

// runSeconds is the timed-window length one benchmark run is sized for
// (BENCHMARK.json "run_seconds"). The round count of a run is a pure
// function of (workload, -seconds), never of host speed: dist.RunLoopback
// rejects wall-clock caps, and a pinned round count is what lets the
// stream hash and fingerprint be checked exactly.
const runSeconds = 6

// tailPercentile is the round-time percentile reported beside the median:
// the highest that keeps ten samples beyond it in the shortest timed window
// (60 rounds at runSeconds).
const tailPercentile = 0.80

// maxProcs is the thread budget every run is pinned to: the reference
// host has two cores, so single-process workloads run two workers and the
// sharded one two shards of one worker each — never more runnable
// threads than cores.
const maxProcs = 2

// workload is one pinned world. The program under test only ever sees
// the SoakConfig soak() generates from the seed.
type workload struct {
	name string
	why  string

	n      int     // initial population
	shards int     // 0: obs.RunSoak; ≥2: dist.RunLoopback
	warmup int     // warm-up rounds (cold caches, groups forming)
	rate   float64 // timed rounds per -seconds second, measured on the reference host
	// refRounds is the length of the cross-mode reference run every
	// untraced invocation repeats (see crossCheck).
	refRounds int

	tune func(c *obs.SoakConfig) // workload-specific fields on top of the shared base
}

// Every workload is a closed loop (one driver; the next round starts when
// the previous one returns) at Dmax=3, range 2.5, constant density.
var workloads = []workload{
	{
		name: "parked-commuter",
		why:  "2% movers at n=20000: home ground of the skip/cache stack (delta graph, elided deliveries, small dirty set); working set far beyond the private caches",
		n:    20000, warmup: 50, rate: 10, refRounds: 6,
		tune: func(c *obs.SoakConfig) { c.ActiveFraction = 0.02 },
	},
	{
		name: "rwp-allmoving",
		why:  "all-moving random waypoint at n=5000 bypasses every cache: full graph rebuild each tick, ~4% skips, tracker re-evaluates most views",
		n:    5000, warmup: 50, rate: 13, refRounds: 8,
	},
	{
		name: "churn-chaos",
		why:  "n=1500 urban walls, join/leave 0.2, mixed faults, lossy channel: the same layers written beside read (slot recycling, epoch bumps, arbitrate phase, monitor)",
		n:    1500, warmup: 250, rate: 76, refRounds: 60,
		tune: func(c *obs.SoakConfig) {
			c.Urban = true
			c.ActiveFraction = 0.3
			c.JoinRate, c.LeaveRate = 0.2, 0.2
			// A Profile carries the injector's round clock, so every run
			// needs a fresh one. Faults stay armed for the whole run: the
			// timed window must see one load, not a faulty head and a
			// fault-free tail.
			prof, err := fault.Preset("mixed", 1)
			if err != nil {
				panic(err) // "mixed" is a built-in preset
			}
			prof.Seed = c.Seed ^ 0x6368616f73 // grpsoak's derivation ("chaos")
			c.Fault = prof
		},
	},
	{
		name: "parked-2shard",
		why:  "parked-commuter's world and seed over 2 loopback shards: dist + wire boundary codec + barrier wait; must reproduce parked-commuter's stream and fingerprint",
		n:    20000, shards: 2, warmup: 50, rate: 10, refRounds: 6,
		tune: func(c *obs.SoakConfig) { c.ActiveFraction = 0.02 },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// workers is the engine/tracker fan-out per process image of the world.
func (w *workload) workers() int {
	if w.shards > 1 {
		return maxProcs / w.shards
	}
	return maxProcs
}

// timedRounds sizes the timed window for -seconds.
func (w *workload) timedRounds(seconds float64) int {
	return max(4, int(math.Round(w.rate*seconds)))
}

// soak generates the run's input from the seed. n ≤ 0 selects the pinned
// population (tests shrink it).
func (w *workload) soak(seed int64, n, rounds int) obs.SoakConfig {
	if n <= 0 {
		n = w.n
	}
	c := obs.SoakConfig{
		N: n, Dmax: 3, Range: 2.5,
		Seed:        seed,
		Workers:     w.workers(),
		MaxRounds:   rounds,
		Fingerprint: true,
	}
	if w.tune != nil {
		w.tune(&c)
	}
	return c
}

// configRecord is the manifest's flat rendering of a workload's input
// (SoakConfig itself holds funcs and interfaces).
type configRecord struct {
	N              int     `json:"n"`
	Dmax           int     `json:"dmax"`
	Range          float64 `json:"range"`
	Side           float64 `json:"side"`
	Urban          bool    `json:"urban"`
	DT             float64 `json:"dt"`
	Workers        int     `json:"workers"`
	Shards         int     `json:"shards"`
	JoinRate       float64 `json:"join_rate"`
	LeaveRate      float64 `json:"leave_rate"`
	ActiveFraction float64 `json:"active_fraction"`
	Fault          string  `json:"fault,omitempty"`
	WarmupRounds   int     `json:"warmup_rounds"`
	TimedRounds    int     `json:"timed_rounds"`
}

func (w *workload) configRecord(seconds float64) configRecord {
	c := w.soak(1, 0, 1)
	obs.BuildSoakWorld(&c) // normalizes (Side, DT)
	r := configRecord{
		N: c.N, Dmax: c.Dmax, Range: c.Range, Side: c.Side, Urban: c.Urban, DT: c.DT,
		Workers: c.Workers, Shards: max(1, w.shards),
		JoinRate: c.JoinRate, LeaveRate: c.LeaveRate, ActiveFraction: c.ActiveFraction,
		WarmupRounds: w.warmup, TimedRounds: w.timedRounds(seconds),
	}
	if c.Fault != nil {
		r.Fault = c.Fault.Name
	}
	return r
}

// metric is one named number the benchmark prints. bound is the share of
// the baseline median an end-to-end metric may worsen by before it counts
// as a regression (per-layer metrics have none).
type metric struct {
	name   string
	unit   string
	better string // "lower" | "higher"
	bound  float64
	def    string // definition, time base, and (per-layer) what it should move
}

// sim reports whether the metric is a simulated statistic — exact for a
// given seed — rather than host time or memory.
func (m metric) sim() bool { return strings.HasPrefix(m.def, "sim:") }

// endToEnd is what a user of the soak path sees and this host can
// measure to within a bound: memory, set-up time, and the simulated
// service's own costs ("sim": exact for a given seed). Throughput and
// per-round latency are hostTime metrics below — printed by every run, but
// not gated: on the reference host (a shared two-core VM) the same binary
// on the same seed measured 9.0 and 15.4 rounds/s within a quarter of an
// hour, CPU time moving with wall time, a spread of 20-40% against bounds
// of 10-15%.
var endToEnd = []metric{
	{"allocs_per_round", "count", "lower", 0.25, "runtime.MemStats.Mallocs delta over the timed window / timed rounds"},
	{"alloc_kb_per_round", "KB", "lower", 0.15, "runtime.MemStats.TotalAlloc delta over the timed window / timed rounds"},
	{"peak_rss_mb", "MB", "lower", 0.15, "ru_maxrss of the benchmark process after the measured run"},
	{"setup_s", "s", "lower", 0.25, "host: entry of RunSoak/RunLoopback to the first Progress call (world, engine, tracker, first graph, first round); median of 5 set-ups"},
	{"air_bytes_per_node_round", "bytes", "lower", 0.15, "sim: registry bytes_sent / (final nodes x rounds), the protocol's radio cost to the application"},
	{"safety_rate_mean", "ratio", "higher", 0.02, "sim: SoakResult.MeanSafetyRate, mean per-round share of groups within Dmax"},
}

// hostTime metrics are the wall and CPU readings of the untraced run.
// The bound is the one ISSUE 11 asked for and -compare still applies; it
// gates nothing. In BENCHMARK.json they are per-layer metrics of the
// "driver" layer.
var hostTime = []metric{
	{"driver.rounds_per_s", "1/s", "higher", 0.10, "host: timed rounds / wall time of the timed window"},
	{"driver.round_ms_p50", "ms", "lower", 0.10, "host: median per-round wall time over the timed rounds"},
	{"driver.round_ms_p80", "ms", "lower", 0.15, "host: 80th percentile of the same samples (>= 11 samples beyond it in a full untraced run)"},
	{"driver.cpu_ms_per_round", "ms", "lower", 0.10, "host: getrusage user+sys delta over the timed window / rounds"},
	{"driver.warmup_s", "s", "lower", 0.10, "host: first Progress call to the end of the last warm-up round"},
}

// perLayer metrics come from the traced run (hostTime ones from the
// untraced run beside it): per timed round unless the definition says
// otherwise.
var perLayer = append(hostTime[:len(hostTime):len(hostTime)], []metric{
	{"engine.advance_ms", "ms", "lower", 0, "span AdvancePhase; -> driver.rounds_per_s on rwp-allmoving; replicated per shard on parked-2shard"},
	{"engine.build_ms", "ms", "lower", 0, "span BuildPhase; -> driver.rounds_per_s on rwp-allmoving"},
	{"engine.finish_ms", "ms", "lower", 0, "span FinishTick (arbitrate+deliver+compute); -> driver.rounds_per_s, driver.cpu_ms_per_round on parked-commuter"},
	{"engine.ph_arbitrate_ms", "ms", "lower", 0, "registry PhaseNs delta; matters on churn-chaos only"},
	{"engine.ph_deliver_ms", "ms", "lower", 0, "registry PhaseNs delta; -> driver.rounds_per_s on parked-commuter"},
	{"engine.ph_compute_ms", "ms", "lower", 0, "registry PhaseNs delta; -> driver.rounds_per_s on parked-commuter, driver.cpu_ms_per_round on churn-chaos"},
	{"engine.computes_run", "count", "lower", 0, "executed computes; -> driver.cpu_ms_per_round on parked-commuter, ~0 on rwp-allmoving"},
	{"engine.skip_share", "ratio", "higher", 0, "computes_skipped / (run + skipped)"},
	{"engine.memo_share", "ratio", "higher", 0, "skips_memo / (run + skipped)"},
	{"engine.compute_us_per_executed", "us", "lower", 0, "ph_compute / computes_run (phase wall, so an upper bound); -> driver.rounds_per_s on rwp-allmoving"},
	{"engine.deliveries", "count", "lower", 0, "receptions resolved to a receiver"},
	{"engine.elided_share", "ratio", "higher", 0, "deliveries_elided / deliveries"},
	{"engine.msg_cache_hit_share", "ratio", "higher", 0, "msg_cache_hits / messages_sent"},
	{"engine.recv_cache_hit_share", "ratio", "higher", 0, "recv_cache_hits / all receiver-set resolutions"},
	{"engine.graph_full_round_share", "ratio", "lower", 0, "graph_full_rounds / ticks; matters on churn-chaos only"},

	{"mobility.step_us_per_tick", "us", "lower", 0, "replica-world probe, median of 50 Step calls; -> engine.advance_ms"},
	{"space.graph_us_per_tick", "us", "lower", 0, "replica-world probe, median of 50 SymmetricGraph calls; -> engine.advance_ms; the serial share that caps shard speed-up"},
	{"graph.rows_changed_per_tick", "count", "lower", 0, "replica-world probe, mean RowsChanged size (all rows on a full rebuild)"},
	{"graph.edges", "count", "lower", 0, "replica-world probe, edges after 50 ticks"},

	{"core.air_bytes_per_msg", "bytes", "lower", 0, "bytes_sent / messages_sent"},
	{"antlist.fold_ns_per_input", "ns", "lower", 0, "probe on end-of-run state: Builder fold over each node's neighbours' broadcast lists; -> engine.compute_us_per_executed"},
	{"core.probe_compute_ns", "ns", "lower", 0, "static Clusters(40,6,2,ring) probe, per ComputeIn; -> engine.compute_us_per_executed"},
	{"core.probe_build_ns", "ns", "lower", 0, "same probe, per BuildMessage; -> engine.build_ms"},
	{"core.probe_receive_ns", "ns", "lower", 0, "same probe, per ReceiveRef; -> engine.ph_deliver_ms"},
	{"core.probe_allocs_per_round", "count", "lower", 0, "same probe, mallocs per round; -> allocs_per_round"},

	{"radio.drop_share", "ratio", "lower", 0, "radio_drops / (deliveries + radio_drops); exactly 0 off churn-chaos"},
	{"fault.apply_us", "us", "lower", 0, "span Injector.Apply; 0 off churn-chaos"},
	{"fault.injected", "count", "lower", 0, "faults_injected over the whole run"},

	{"obs.observe_ms", "ms", "lower", 0, "span GroupTracker.Observe; -> driver.rounds_per_s, driver.round_ms_p80 on rwp-allmoving"},
	{"obs.sink_us", "us", "lower", 0, "span Sink.Write"},
	{"obs.monitor_us", "us", "lower", 0, "span Monitor.ObserveRound; 0 off churn-chaos"},
	{"obs.sink_bytes", "bytes", "lower", 0, "stream bytes / rounds"},
	{"obs.groups_final", "count", "higher", 0, "sim: groups in the final record"},
	{"obs.continuity_break_rounds", "count", "lower", 0, "sim: rounds with PiC false, whole run"},
	{"obs.unexcused_breaks", "count", "lower", 0, "sim: PiC false while PiT held, whole run"},

	{"wire.encode_ns_per_msg", "ns", "lower", 0, "probe over every live node's broadcast; -> dist.boundary_self_ms"},
	{"wire.decode_ns_per_msg", "ns", "lower", 0, "same probe"},
	{"wire.bytes_per_msg", "bytes", "lower", 0, "same probe, mean frame length"},

	{"dist.tick_ms_max", "ms", "lower", 0, "span Shard.Tick summed per round, slowest shard; 0 off parked-2shard"},
	{"dist.tick_ms_min", "ms", "lower", 0, "same, fastest shard"},
	{"dist.exchange_wait_ms_max", "ms", "lower", 0, "span Transport.Exchange per round, shard that waits longest; -> driver.round_ms_p80 on parked-2shard"},
	{"dist.exchange_wait_ms_min", "ms", "lower", 0, "same, shard that waits least"},
	{"dist.boundary_self_ms", "ms", "lower", 0, "tick - exchange - engine PhaseNs (routeBoundary + ingest), slowest shard"},
	{"dist.shard_imbalance", "ratio", "lower", 0, "max / min over shards of busy time (tick - exchange); cause of exchange wait"},
	{"dist.boundary_bytes", "bytes", "lower", 0, "boundary_bytes_sent over all shards"},
	{"dist.frames_elided_share", "ratio", "higher", 0, "boundary_frames_elided / (frames + elided)"},
	{"dist.ext_deliveries", "count", "lower", 0, "receptions injected across the shard boundary"},
	{"dist.lead_sync_ms", "ms", "lower", 0, "untraced driver.round_ms_p50 - traced round p50: lead tracker + sync exchange (unexported, so not spanned)"},

	{"driver.unattributed_ms", "ms", "lower", 0, "self time of the round and tick spans; must stay < 5% of the round"},
	{"driver.trace_overhead_share", "ratio", "lower", 0, "1 - traced / untraced rounds_per_s of the same invocation"},
	{"driver.gc_pause_ms", "ms", "lower", 0, "MemStats.PauseTotalNs delta; -> driver.round_ms_p80"},
	{"driver.gc_cycles", "count", "lower", 0, "MemStats.NumGC delta over the timed window (not per round)"},
	{"driver.heap_live_mb_end", "MB", "lower", 0, "HeapAlloc after a forced GC at the end of the traced run"},
	{"driver.loadavg_start", "ratio", "lower", 0, "1-minute load average when the invocation started"},
}...)

// benchmarkFile is the contract BENCHMARK.json is written to: exactly
// these keys.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchEndToEnd `json:"end_to_end"`
	PerLayer   []benchPerLayer `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// and the program cannot name different metrics.
func benchmarkJSON() []byte {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./cmd/grpbench"},
		Paths:      []string{"cmd/grpbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchEndToEnd{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchPerLayer{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("grpbench: BENCHMARK.json: %v", err))
	}
	return append(b, '\n')
}
