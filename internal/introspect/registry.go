// Package introspect is the engine's flight recorder: a zero-alloc,
// deterministic metrics registry plus live profiling surfaces.
//
// The registry splits into two strictly separated sections:
//
//   - The deterministic core: monotonic event counters (CounterID). Every
//     counter is incremented either on the coordinator between phases or
//     in per-shard lanes written only by the owning shard's worker — the
//     same discipline the engine's phase fan-out uses — and totals are
//     folded in shard order. Counts are therefore bit-identical at any
//     worker count and any GOMAXPROCS: instrumentation is a correctness
//     artifact the conformance suite pins, not a sampled dashboard.
//   - The wall-clock section: per-phase nanosecond accumulators
//     (PhaseNs), and beside them, for the phases that fan out over the
//     shards, the summed time its participants spent claiming and running
//     shard items (BusyNs, one clock pair per participant and call): a
//     phase run at width W kept its participants idle W·PhaseNs − BusyNs.
//     Timings are machine- and load-dependent by nature, so they live
//     outside the counter block and never participate in any determinism
//     comparison — a snapshot carries them separately.
//
// All cells are updated with atomic operations, so a live HTTP observer
// (Serve) can read a consistent-enough snapshot while the engine runs
// without perturbing the phases with locks. The per-shard lanes make the
// hot-path cost one uncontended atomic add per counter flush: engine
// phases accumulate in locals and flush once per shard per phase.
package introspect

import "sync/atomic"

// CounterID names one deterministic counter. The wake-cause block
// (CtrWakeFresh..CtrWakeQuietReplay) is contiguous and mirrors WakeCause,
// which WakeCause.Counter relies on.
type CounterID uint8

const (
	// CtrTicks counts engine steps.
	CtrTicks CounterID = iota

	// Build phase.
	CtrMessagesSent   // broadcasts handed to the channel
	CtrBytesSent      // their encoded sizes
	CtrMsgBuilds      // broadcasts actually assembled (BuildMessage ran)
	CtrMsgCacheHits   // sends served from the version-validated message cache
	CtrRecvCacheHits  // receiver sets served on a current epoch (no check at all)
	CtrRecvRowHits    // stale epoch revalidated by row identity (pointer compare)
	CtrRecvRowRefills // stale epoch refilled from a changed topology row
	CtrRecvRebuilds   // always 0: a receiver set has one derivation, its graph row; declared while the benchmark sums it

	// Broadcast pools (per shard): takes that found nothing ripe.
	CtrMsgPoolMisses  // builds and ghost refreshes that got a new or first-round message
	CtrEntsPoolMisses // list commits and ghost refreshes that allocated their entries

	// Topology/receiver-cache invalidation (coordinator side).
	CtrGraphDeltaRounds // graph changes absorbed as per-sender dirty-row demotions
	CtrGraphFullRounds  // graph/membership changes that bumped the global epoch
	CtrRecvRowDemotions // individual sender records demoted by a delta step

	// Arbitrate phase.
	CtrRadioDrops // deliveries the channel suppressed (radio.DropCounter delta)

	// Deliver phase.
	CtrDeliveries       // successful receptions resolved to a receiver
	CtrDeliveriesElided // repeats of an unchanged broadcast elided via the signature

	// Compute phase.
	CtrComputesRun     // full protocol computes executed
	CtrComputesSkipped // compute boundaries satisfied by the activity skip
	CtrSkipFixpoint    // …as O(1) fixpoint replays
	CtrSkipLonely      // …as O(1) lonely replays
	CtrSkipHeld        // …as O(1) held replays (boundary memory in flight)
	CtrSkipMemo        // …as O(1) memoized replays (content digest re-proved the fixpoint)

	// Wake attribution: why a full compute ran (one cause per compute;
	// the block mirrors WakeCause — see classify in internal/engine).
	CtrWakeFresh       // node never computed since (re)joining
	CtrWakeSelfActive  // its own previous round was not a no-op (not armed)
	CtrWakeVersionBump // state version moved outside compute (LoadState, crash reload)
	CtrWakeHoldExpiry  // boundary-memory hold horizon reached
	CtrWakeMemoMiss    // signature churned in versions only, but no memo proof covered it
	CtrWakeInboxNew    // inbox signature gained or changed a sender entry
	CtrWakeInboxLost   // inbox signature lost a sender entry (silence, departure)
	CtrWakeQuietReplay // skip-eligible round computed anyway (Engine.SetSkipMode)

	// Fault injection (internal/fault routes emit through the registry).
	CtrFaultsInjected     // fault events emitted
	CtrFaultNodesAffected // nodes those events touched

	// Observation (obs.GroupTracker).
	CtrObsRounds           // tracker observations
	CtrObsContinuityBreaks // observations with ΠC false
	CtrObsTopologyBreaks   // observations with ΠT false
	CtrObsUnexcusedBreaks  // ΠC false while ΠT held
	CtrObsViolatingNodes   // total nodes that lost a group member
	CtrObsRowsSwept        // rows phase 2 examined (topology-dirty members)
	CtrObsPairsReused      // ΠM verdicts reused from the last scan
	CtrObsPairsBFS         // ΠM verdicts settled by a BFS

	// Distributed boundary exchange (internal/dist).
	CtrBoundaryBytesSent    // encoded boundary-batch bytes shipped to peers
	CtrBoundaryBytesRecv    // encoded boundary-batch bytes received from peers
	CtrBoundaryFrames       // full broadcast frames shipped (ghost updates sent)
	CtrBoundaryFramesElided // boundary entries elided to a version header (peer replays its ghost)
	CtrGhostUpdates         // ghost replicas refreshed from a received full frame
	CtrExtDeliveries        // receptions injected across the process boundary

	// NumCounters sizes every lane.
	NumCounters
)

// counterNames maps CounterID to the stable snake_case names snapshots,
// JSONL flight records and the HTTP endpoint use.
var counterNames = [NumCounters]string{
	CtrTicks:               "ticks",
	CtrMessagesSent:        "messages_sent",
	CtrBytesSent:           "bytes_sent",
	CtrMsgBuilds:           "msg_builds",
	CtrMsgCacheHits:        "msg_cache_hits",
	CtrRecvCacheHits:       "recv_cache_hits",
	CtrRecvRowHits:         "recv_row_hits",
	CtrRecvRowRefills:      "recv_row_refills",
	CtrRecvRebuilds:        "recv_rebuilds",
	CtrMsgPoolMisses:       "msg_pool_misses",
	CtrEntsPoolMisses:      "ents_pool_misses",
	CtrGraphDeltaRounds:    "graph_delta_rounds",
	CtrGraphFullRounds:     "graph_full_rounds",
	CtrRecvRowDemotions:    "recv_row_demotions",
	CtrRadioDrops:          "radio_drops",
	CtrDeliveries:          "deliveries",
	CtrDeliveriesElided:    "deliveries_elided",
	CtrComputesRun:         "computes_run",
	CtrComputesSkipped:     "computes_skipped",
	CtrSkipFixpoint:        "skips_fixpoint",
	CtrSkipLonely:          "skips_lonely",
	CtrSkipHeld:            "skips_held",
	CtrSkipMemo:            "skips_memo",
	CtrWakeFresh:           "wakes_fresh",
	CtrWakeSelfActive:      "wakes_self_active",
	CtrWakeVersionBump:     "wakes_version_bump",
	CtrWakeHoldExpiry:      "wakes_hold_expiry",
	CtrWakeMemoMiss:        "wakes_memo_miss",
	CtrWakeInboxNew:        "wakes_inbox_new",
	CtrWakeInboxLost:       "wakes_inbox_lost",
	CtrWakeQuietReplay:     "wakes_quiet_replay",
	CtrFaultsInjected:      "faults_injected",
	CtrFaultNodesAffected:  "fault_nodes_affected",
	CtrObsRounds:           "obs_rounds",
	CtrObsContinuityBreaks: "obs_continuity_breaks",
	CtrObsTopologyBreaks:   "obs_topology_breaks",
	CtrObsUnexcusedBreaks:  "obs_unexcused_breaks",
	CtrObsViolatingNodes:   "obs_violating_nodes",
	CtrObsRowsSwept:        "obs_rows_swept",
	CtrObsPairsReused:      "obs_pairs_reused",
	CtrObsPairsBFS:         "obs_pairs_bfs",

	CtrBoundaryBytesSent:    "boundary_bytes_sent",
	CtrBoundaryBytesRecv:    "boundary_bytes_recv",
	CtrBoundaryFrames:       "boundary_frames",
	CtrBoundaryFramesElided: "boundary_frames_elided",
	CtrGhostUpdates:         "ghost_updates",
	CtrExtDeliveries:        "ext_deliveries",
}

// String returns the counter's stable snake_case name.
func (id CounterID) String() string {
	if id < NumCounters {
		return counterNames[id]
	}
	return "counter(?)"
}

// WakeCause says which gate of the activity-skip check broke, forcing a
// full compute. Exactly one cause is attributed per executed compute, so
// the per-cause histogram always accounts for 100% of CtrComputesRun.
// The order mirrors the skip predicate's evaluation order (and the
// contiguous CtrWake* counter block).
type WakeCause uint8

const (
	// WakeFresh: the node has never computed since (re)joining — there is
	// no quiet round to replay yet.
	WakeFresh WakeCause = iota
	// WakeSelfActive: the node's own previous round changed its state
	// (not armed) — it is genuinely active.
	WakeSelfActive
	// WakeVersionBump: the state version moved since the quiet round
	// outside the compute path (LoadState — crash recovery, corruption).
	WakeVersionBump
	// WakeHoldExpiry: a held replay reached its boundary-memory horizon;
	// the expiring round must run in full.
	WakeHoldExpiry
	// WakeMemoMiss: the inbox signature kept the same sender set (every
	// id and incarnation matched) but some versions moved — exactly the
	// shape the fixpoint memo covers — yet no stored proof matched the
	// inbox content, so the round computed in full. Classification is a
	// pure function of the two signatures (the memo table is never read),
	// so the histogram stays bit-identical across modes and worker counts.
	WakeMemoMiss
	// WakeInboxNew: the inbox signature gained or changed a sender entry
	// — fresh traffic, including a neighbor arriving through a topology
	// or membership change (the dirty-row wakes of a mobile world).
	WakeInboxNew
	// WakeInboxLost: the signature lost a sender entry — a neighbor went
	// silent, departed, or moved out of range.
	WakeInboxLost
	// WakeQuietReplay: every gate held — the round was skip-eligible but
	// computed anyway (Engine.SetSkipMode). Zero on the default path.
	WakeQuietReplay

	// NumWakeCauses sizes per-cause accumulators.
	NumWakeCauses
)

var wakeNames = [NumWakeCauses]string{
	WakeFresh:       "fresh",
	WakeSelfActive:  "self_active",
	WakeVersionBump: "version_bump",
	WakeHoldExpiry:  "hold_expiry",
	WakeMemoMiss:    "memo_miss",
	WakeInboxNew:    "inbox_new",
	WakeInboxLost:   "inbox_lost",
	WakeQuietReplay: "quiet_replay",
}

// String returns the cause's stable snake_case name.
func (c WakeCause) String() string {
	if c < NumWakeCauses {
		return wakeNames[c]
	}
	return "cause(?)"
}

// Counter returns the registry counter accumulating this cause.
func (c WakeCause) Counter() CounterID { return CtrWakeFresh + CounterID(c) }

// Phase names one engine phase for the wall-clock section.
type Phase uint8

const (
	PhaseAdvance Phase = iota
	PhaseBuild
	PhaseArbitrate
	PhaseDeliver
	PhaseCompute

	// PhaseAdvance's two parts on a spatial topology (mobility step, graph
	// rebuild): inside it, not added to the five phases that sum to a tick.
	PhaseAdvanceMobility
	PhaseAdvanceGraph

	// NumPhases sizes the timing accumulators.
	NumPhases
)

// FanOutPhases are the phases the engine fans out over the shards, the
// ones whose participants it times into BusyNs.
var FanOutPhases = [...]Phase{PhaseBuild, PhaseDeliver, PhaseCompute}

var phaseNames = [NumPhases]string{
	PhaseAdvance:         "advance",
	PhaseBuild:           "build",
	PhaseArbitrate:       "arbitrate",
	PhaseDeliver:         "deliver",
	PhaseCompute:         "compute",
	PhaseAdvanceMobility: "advance_mobility",
	PhaseAdvanceGraph:    "advance_graph",
}

// String returns the phase's name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "phase(?)"
}

// Lane is one write-isolated block of counters: either a shard's lane
// (written only by the worker owning that shard) or the coordinator's.
// Writes are atomic so a live HTTP reader never races them.
type Lane [NumCounters]uint64

// Add adds d to the counter. Zero deltas are skipped, so hot loops can
// flush whole local blocks unconditionally.
func (l *Lane) Add(id CounterID, d uint64) {
	if d != 0 {
		atomic.AddUint64(&l[id], d)
	}
}

// Inc adds one.
func (l *Lane) Inc(id CounterID) { atomic.AddUint64(&l[id], 1) }

// Registry is one engine's flight recorder. The zero value is not usable;
// call NewRegistry. All methods are safe for the engine's phase
// concurrency discipline plus any number of concurrent readers.
type Registry struct {
	shards  []Lane                  // per-shard lanes, owned by the shard's worker
	coord   Lane                    // coordinator-side events
	phaseNs [NumPhases]int64        // wall-clock section (atomic)
	busyNs  [NumPhases]atomic.Int64 // …and its fanned-out phases' participant time
}

// NewRegistry builds a registry for an engine with the given shard count.
func NewRegistry(shards int) *Registry {
	return &Registry{shards: make([]Lane, shards)}
}

// Shard returns shard s's lane. Only shard s's worker may write it.
func (r *Registry) Shard(s int) *Lane { return &r.shards[s] }

// Inc increments a coordinator-side counter.
func (r *Registry) Inc(id CounterID) { r.coord.Inc(id) }

// Add adds to a coordinator-side counter.
func (r *Registry) Add(id CounterID, d uint64) { r.coord.Add(id, d) }

// Get folds one counter's total: the coordinator cell plus every shard
// lane, in shard order. Addition is commutative, so the total cannot
// depend on the worker count — the property the conformance suite pins.
func (r *Registry) Get(id CounterID) uint64 {
	t := atomic.LoadUint64(&r.coord[id])
	for s := range r.shards {
		t += atomic.LoadUint64(&r.shards[s][id])
	}
	return t
}

// AddPhaseNs accumulates wall-clock nanoseconds for one phase. This is
// the only mutator of the non-deterministic section.
func (r *Registry) AddPhaseNs(p Phase, ns int64) {
	atomic.AddInt64(&r.phaseNs[p], ns)
}

// PhaseNs returns one phase's accumulated wall-clock nanoseconds.
func (r *Registry) PhaseNs(p Phase) int64 {
	return atomic.LoadInt64(&r.phaseNs[p])
}

// Busy is the accumulator of one fanned-out phase's busy time: the wall
// nanoseconds its participants spent claiming and running shard items
// (shard.RunTimed adds to it). Any participant may add to it.
func (r *Registry) Busy(p Phase) *atomic.Int64 { return &r.busyNs[p] }

// BusyNs returns one phase's summed participant busy time (0 for a phase
// that does not fan out).
func (r *Registry) BusyNs(p Phase) int64 { return r.busyNs[p].Load() }

// Counters folds every counter into a name→total map (a fresh map per
// call — snapshots are handed to sinks that retain them).
func (r *Registry) Counters() map[string]uint64 {
	out := make(map[string]uint64, NumCounters)
	for id := CounterID(0); id < NumCounters; id++ {
		out[counterNames[id]] = r.Get(id)
	}
	return out
}

// Snapshot is one point-in-time view of the registry: the deterministic
// counter section and the wall-clock section, kept in separate maps so
// consumers can never conflate them.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
	PhaseNs  map[string]int64  `json:"phase_ns"`
	BusyNs   map[string]int64  `json:"busy_ns"` // the fanned-out phases only
}

// Snapshot captures the registry. Counters are exact under the engine's
// between-steps quiescence; read live they are monotonic but may span a
// phase boundary.
func (r *Registry) Snapshot() Snapshot {
	ph := make(map[string]int64, NumPhases)
	busy := make(map[string]int64, len(FanOutPhases))
	for p := Phase(0); p < NumPhases; p++ {
		ph[phaseNames[p]] = r.PhaseNs(p)
	}
	for _, p := range FanOutPhases {
		busy[phaseNames[p]] = r.BusyNs(p)
	}
	return Snapshot{Counters: r.Counters(), PhaseNs: ph, BusyNs: busy}
}
