// Package engine is the execution substrate of the GRP reproduction: the
// deterministic phase-parallel scheduler every experiment, benchmark and
// soak runs on, with its topology and membership abstractions.
//
// One Step is five phases:
//
//  1. advance   — the topology moves (mobility), on the global RNG stream;
//  2. build     — every node whose send timer fires assembles its
//     broadcast, fanned out over a worker pool;
//  3. arbitrate — the radio channel decides which receptions succeed, on
//     the global RNG stream;
//  4. deliver   — successful receptions are stored at the receivers,
//     fanned out over the worker pool;
//  5. compute   — every node whose compute timer fires runs the protocol
//     computation, fanned out over the worker pool.
//
// Parallelism is deterministic by construction (in the spirit of
// deterministic parallel frameworks such as Bobpp): node work is sharded
// by NodeID into a fixed number of shards (independent of the worker
// count), every shard is processed sequentially in a canonical order, and
// each shard owns a private RNG stream derived from the seed. Workers
// only ever race for *which* shard they process next, never for the order
// of effects inside a shard, and cross-shard effects (message delivery)
// are partitioned by receiver before the parallel phase starts. A fixed
// seed therefore yields bit-identical traces at any GOMAXPROCS and any
// Workers setting.
//
// Per-node bookkeeping is slot-indexed: the Roster assigns every member a
// stable dense slot for its lifetime (deterministically recycled on
// churn), the timer wheels carry (id, slot) entries, and the hot phases
// index the flat record table directly — the only ID→slot map probes left
// sit at the membership boundary and in delivery resolution, where the
// radio layer's ID-based contract meets the slot world.
//
// The compute phase is activity-driven: a node whose last executed round
// was provably a no-op (core.Node.RoundQuietness) and whose inbox since
// then is identical — tracked as per-sender (incarnation, message
// version) signatures maintained during delivery — replays the no-op in
// O(1) (core.Node.SkipQuietRound / SkipLonelyRound) instead of
// re-deriving it. One function, skipGate, both takes that decision and
// names the gate that broke it for the flight recorder. Tick cost
// therefore tracks the active set, not the roster. The conformance suite
// pins the trace bit-identical to the eager engine's (SetSkipMode).
//
// Phases 2 and 5 read and write disjoint per-node state (core.Node is
// only ever touched by its own shard's worker; a message is not written
// while a receiver holds it), so the fan-out needs no locks.
package engine

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/antlist"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/radio"
	"repro/internal/shard"
)

// shardSeed derives shard s's private RNG seed from the run seed
// (splitmix64 finalizer, so neighboring shards get uncorrelated streams).
func shardSeed(seed int64, s int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(s+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Params configures a simulation run.
type Params struct {
	// Cfg is the protocol configuration (Dmax etc.).
	Cfg core.Config
	// Ts is the send period in ticks (τ2); default 1.
	Ts int
	// Tc is the compute period in ticks (τ1 ≥ τ2); default 2·Ts.
	Tc int
	// Channel is the radio model; default radio.Perfect.
	Channel radio.Channel
	// Jitter desynchronizes the nodes' timers with random phase offsets.
	Jitter bool
	// RandomizedSends redraws each node's next send instant after every
	// transmission (uniform in [1, Ts], so the mean period stays ≈ Ts/2
	// + 1): the CSMA-style backoff that makes the fair-channel hypothesis
	// hold on the collision channel — with fixed phases, two aligned
	// neighbors would collide deterministically forever.
	RandomizedSends bool
	// Seed drives all randomness (mobility, channel, jitter, send
	// backoff). The same seed reproduces the same execution bit for bit
	// regardless of Workers.
	Seed int64
	// Workers sets the build/deliver/compute fan-out width; 0 or 1 runs
	// the phases inline (the sequential path), larger values use that
	// many goroutines. The trace is identical either way.
	Workers int
}

func (p *Params) normalize() {
	if p.Ts <= 0 {
		p.Ts = 1
	}
	if p.Tc <= 0 {
		p.Tc = 2 * p.Ts
	}
	if p.Tc < p.Ts {
		panic(fmt.Sprintf("engine: Tc (%d) must be ≥ Ts (%d)", p.Tc, p.Ts))
	}
	if p.Channel == nil {
		p.Channel = radio.Perfect{}
	}
}

// senderVer is one entry of a node's inbox signature: the identity of a
// delivered message without its content. A sender's broadcast is a pure
// function of its state version (core.Node.Version), and the incarnation
// generation disambiguates removed-and-readded nodes whose version
// counters restart — equal signatures therefore imply byte-identical
// buffered message sets. A signature mismatch is not the end of the
// skip decision: the fixpoint memo (DESIGN.md §2.3) gives windows whose
// *content* the node has already proven harmless a second chance, keyed
// on digests of the buffered messages themselves rather than on these
// identity triples.
type senderVer struct {
	id  ident.NodeID
	gen uint64 // sender incarnation (engine membership generation at add)
	ver uint64 // sender state version the delivered broadcast was built at
}

// resolvedDelivery is one reception with the receiver record and message
// resolved on the coordinator, so the parallel deliver phase touches no
// shared maps.
type resolvedDelivery struct {
	to   *nodeRec
	msg  *core.Message
	from senderVer
}

// shardScratch is one shard's reusable buffers: the per-tick slates, and
// the scratch every node of the shard computes in — a shard is a function
// of the node ID worked by one worker at a time at any Workers setting.
type shardScratch struct {
	txs   []radio.Tx
	bytes int
	deliv []resolvedDelivery
	wakes []introspect.WakeRec // per-shard wake ring segment (TraceWakes only)
	core  core.Scratch
	recs  pool[core.PrioRec]
	ents  pool[ident.Entry]
}

// pool is one shard's storage of replaced broadcasts — their records, or
// their lists' entries — oldest first per capacity (DESIGN.md §2.3,
// pools): retired at tick t, written again from t+Tc on by any node of
// the shard, left to the GC if unclaimed by t+2·Tc.
type pool[T any] struct{ byCap []fifo[T] }

type fifo[T any] struct {
	q    []retired[T]
	head int // q[:head] were taken since the last sweep
	idle int // sweeps in a row that left q empty
}

type retired[T any] struct {
	buf  []T
	tick int
}

func (p *pool[T]) retire(buf []T, tick int) {
	if c := cap(buf); c > 0 {
		p.byCap = append(p.byCap, make([]fifo[T], max(0, c+1-len(p.byCap)))...)
		p.byCap[c].q = append(p.byCap[c].q, retired[T]{buf, tick})
	}
}

// take returns storage of capacity need, or up to four more, retired by ripe.
func (p *pool[T]) take(need, ripe int) []T {
	for c := need; c <= need+4 && c < len(p.byCap); c++ {
		if f := &p.byCap[c]; f.head < len(f.q) && f.q[f.head].tick <= ripe {
			f.head++
			return f.q[f.head-1].buf
		}
	}
	return nil
}

// sweep ends a tick's build: what was retired at ripe is poisoned if poison
// is set (the shard runs under the oracle); what was retired by stale is
// dropped, and so is the array of a queue empty for longer than that took.
func (p *pool[T]) sweep(ripe, stale int, poison func([]T)) {
	for c := range p.byCap {
		f, n := &p.byCap[c], 0
		for _, r := range f.q[f.head:] {
			if r.tick <= stale {
				continue
			}
			if r.tick == ripe && poison != nil {
				poison(r.buf)
			}
			f.q[n] = r
			n++
		}
		clear(f.q[n:])
		if f.q, f.head = f.q[:n], 0; n > 0 {
			f.idle = 0
		} else if f.idle++; f.idle > ripe-stale {
			f.q = nil
		}
	}
}

// retire gives a replaced broadcast's storage to the pools: its records,
// and its list's entries iff the commit moved the list to cur (Publish
// returns prev itself on equal content, and then they live on).
func (sc *shardScratch) retire(old *core.Message, cur antlist.List, tick int) {
	sc.recs.retire(old.Recs, tick)
	if was, now := old.List.Entries(), cur.Entries(); cap(was) > 0 && (cap(now) == 0 || &was[:1][0] != &now[:1][0]) {
		sc.ents.retire(was, tick)
	}
}

// sweep ends the shard's build tick on both pools; under the shard's
// SelfCheck what becomes takeable is poisoned.
func (sc *shardScratch) sweep(e *Engine) {
	var poisonRecs func([]core.PrioRec)
	var poisonEnts func([]ident.Entry)
	if sc.core.SelfCheck {
		poisonRecs, poisonEnts = core.PoisonRecs, core.PoisonEntries
	}
	sc.recs.sweep(e.tick-e.recsHold, e.tick-e.recsHold-e.P.Tc, poisonRecs)
	sc.ents.sweep(e.tick-e.entsHold, e.tick-e.entsHold-e.P.Tc, poisonEnts)
}

// SetRecsHold is a test seam: conformance shows either hold below Tc is caught.
func (e *Engine) SetRecsHold(recs, ents int) { e.recsHold, e.entsHold = recs, ents }

// SetSelfCheck is a test seam, to be called before the first tick: it arms
// (or disarms) the reference oracle on every shard's scratch, so every node
// that computes or builds here — joiners and rejoiners included — runs
// under it, and the shard's pools poison what they hand out again.
func (e *Engine) SetSelfCheck(on bool) {
	for s := range e.scratch {
		e.scratch[s].core.SelfCheck = on
	}
}

// SetSkipMode is a test seam, to be called before the first tick: eager
// runs every due node's full Compute even where the skip is licensed, and
// noMemo switches off only the fixpoint memo's second chance. These are
// the reference engines conformance holds the default trace equal to.
func (e *Engine) SetSkipMode(eager, noMemo bool) { e.eager, e.noMemo = eager, noMemo }

// cachedMsg is one node's last built broadcast, valid while the node's
// state version is unchanged (a node's message is a pure function of its
// state, which only Compute and LoadState move — see core.Node.Version).
// At Tc = k·Ts this skips k−1 of every k message assemblies.
type cachedMsg struct {
	m    core.Message
	size int // EncodedSize, computed once per rebuild
	ver  uint64
}

// nodeRec consolidates the engine's per-node bookkeeping — the protocol
// node, its timer phase, the cached broadcast, the cached receiver set
// and the activity-skip signature — into one slot-indexed record: the hot
// phases reach it by array index from the wheel entries, with no map probe
// at all. Records hold state; what a compute needs only while it runs is
// the shard's (shardScratch.core). A record's mutable fields are only ever
// written by its own shard's worker (or by the coordinator between
// phases). Records are recycled in place when their slot is:
// identity-bearing fields reset on reuse, buffers keep their capacity.
type nodeRec struct {
	n   *core.Node
	id  ident.NodeID // ident.None marks a free slot
	gen uint64       // incarnation stamp (see senderVer)

	phase int

	cm cachedMsg

	recv      []ident.NodeID
	recvEpoch uint64

	// rowRef/rowMem validate recv against a RowTopology row: when the
	// topology serves the same row view (same backing array and length)
	// under an unchanged membership generation, recv is reused without
	// touching the topology's spatial index at all — the per-sender fast
	// path in a mostly-parked world, where delta graph rebuilds share
	// every untouched row. rowRef aliases read-only topology storage.
	rowRef []ident.NodeID
	rowMem uint64

	// Activity-skip state. pending is the inbox signature accumulated
	// since the last compute boundary (ascending by sender, last write
	// wins — mirroring core.Node.Receive); consumed is the signature the
	// last quiet round consumed. When the node's last round was quiet
	// (armed), its version unmoved since (fixVer), and pending equals
	// consumed, the next round provably reproduces itself and is skipped.
	// quiet caches that round's classification (it selects the replay
	// variant); holdExp is the boundary-memory horizon a QuietHeld replay
	// is licensed under — the skip stops one round short of the earliest
	// expiry, so the expiring round always runs in full.
	pending  []senderVer
	consumed []senderVer
	armed    bool
	quiet    core.Quietness
	holdExp  uint64
	fixVer   uint64

	// Fixpoint memo (DESIGN.md §2.3): up to memoCap (state content digest,
	// read-masked inbox digest) pairs proven — by an executed Compute
	// that classified quiet — to reproduce the node's state. When the
	// exact signature check above fails, a memo hit on the *current*
	// content pair licenses the same O(1) replay, whether the node is
	// armed (its senders' versions moved but the content its compute can
	// read did not, or cycled back) or not (the node's own state content
	// cycled back to a proven configuration — the boundary re-probe
	// oscillation). A proof is a context-free mathematical fact about
	// (state content, readable inbox content) under this node's fixed
	// configuration, so the table survives state changes and is dropped
	// only on slot recycling; entries are kept most-recent-first, memoN
	// is the live count.
	//
	// stateDig caches StateDigest at version stateDigVer, refreshed after
	// every executed compute; the memo is consulted only while the
	// node's version still equals stateDigVer, which fences off every
	// external mutation path (LoadState, PoisonBoundary — both bump the
	// version) without the engine having to see it happen.
	memo        [memoCap]memoEnt
	memoN       int
	stateDig    uint64
	stateDigVer uint64

	// seeded marks that the node has computed at least once since this
	// slot incarnation — a compute on an unseeded record is attributed to
	// introspect.WakeFresh, every later one to the gate that broke the
	// skip check.
	seeded bool

	// Byzantine override (internal/fault). While lie is non-nil the node
	// broadcasts lie instead of its genuine message: the build phase
	// accounts lieSize bytes and the deliver phase resolves receptions to
	// (lie, lieVer). lieVer has the top bit set and comes from a global
	// monotone sequence, so it can never collide with a genuine state
	// version in a receiver's inbox signature — every installed lie is
	// treated as fresh traffic and wakes quiet receivers, exactly like a
	// real state change at the sender would. The node's own protocol state
	// keeps evolving honestly underneath.
	lie     *core.Message
	lieVer  uint64
	lieSize int
}

// memoCap bounds the per-node fixpoint memo. A settled boundary cycles
// through its whole hold/expiry/re-probe/re-reject loop — hold rounds,
// the debounce streak, and the quarantine countdown each contribute one
// distinct (state, inbox) content pair, and desynchronized neighbors
// (the expiry jitter staggers them on purpose) multiply the inbox
// variants — so the steady-state working set is the cycle length, not
// the two broadcast variants alone. Sixteen entries cover measured
// commuter-world cycles with slack at 256 bytes per node; LRU over a
// cyclic reference pattern degrades hard once the cycle exceeds the
// cap, so undersizing costs the whole hit rate, not a fraction of it.
const memoCap = 16

// memoEnt is one fixpoint proof: a node whose decision-relevant state
// content hashes to state provably reproduces that state when computing
// over an inbox whose content hashes to inbox.
type memoEnt struct {
	state uint64
	inbox uint64
}

// memoHit reports whether the memo holds a proof for (state, inbox) and
// refreshes its recency on a hit.
func (r *nodeRec) memoHit(state, inbox uint64) bool {
	for i := 0; i < r.memoN; i++ {
		if r.memo[i] == (memoEnt{state: state, inbox: inbox}) {
			ent := r.memo[i]
			copy(r.memo[1:i+1], r.memo[:i])
			r.memo[0] = ent
			return true
		}
	}
	return false
}

// memoStore records a fresh proof at the front, evicting the least
// recently used entry when the table is full.
func (r *nodeRec) memoStore(state, inbox uint64) {
	if r.memoHit(state, inbox) {
		return
	}
	if r.memoN < memoCap {
		r.memoN++
	}
	copy(r.memo[1:r.memoN], r.memo[:r.memoN-1])
	r.memo[0] = memoEnt{state: state, inbox: inbox}
}

// RemovedNode records one departure for the dirty report: the node's
// identity plus the slot it occupied. The slot may already be recycled by
// a later addition within the same window — consumers must treat it as
// "the slot this node held when it left", not as a live index.
type RemovedNode struct {
	ID   ident.NodeID
	Slot int32
}

// Engine is one running simulation.
type Engine struct {
	P    Params
	Topo Topology

	rng       *rand.Rand // global stream: topology + channel + jitter phases
	shardRNGs [shard.N]*rand.Rand
	tick      int

	// recs is the slot-indexed per-node bookkeeping (see nodeRec), indexed
	// by roster slot — together with the roster, the one node index.
	recs []nodeRec

	order     *Roster
	memberGen uint64

	sendWheel    *periodicWheel // fixed-phase sends (nil under RandomizedSends)
	sendOneshot  *oneshotWheel  // randomized sends (nil otherwise)
	computeWheel *periodicWheel

	scratch  [shard.N]shardScratch
	recsHold int  // ticks replaced records sit out of their shard's pool: Tc
	entsHold int  // the same for a replaced list's entries
	eager    bool // SetSkipMode: a licensed replay computes anyway
	noMemo   bool // SetSkipMode: no fixpoint-memo second chance
	txsBuf   []radio.Tx
	delivBuf []radio.Delivery

	// Receiver-cache key: the per-record receiver sets are valid while
	// the topology graph (pointer + mutation generation) and the engine
	// membership stay put; any change bumps recvEpoch, invalidating every
	// record at once.
	recvG     *graph.G
	recvGen   uint64
	recvMem   uint64
	recvEpoch uint64

	snap snapshotBuilder

	// Dirty-node reporting for incremental observers (obs.GroupTracker):
	// while enabled, the compute phase appends the slot of every node
	// whose Compute actually ran to its shard's list (shard-local, so the
	// parallel phase needs no locks; skipped no-op rounds are not
	// reported — they provably leave the view untouched), and membership
	// changes are recorded on the coordinator. DrainDirty hands the
	// accumulated report to the observer and resets it.
	dirtyOn       bool
	dirtyComputed [shard.N][]int32
	dirtyAdded    []ident.NodeID
	dirtyRemoved  []RemovedNode

	// lieSeq feeds the per-lie signature versions handed out by SetLie
	// (top bit set, strictly increasing — disjoint from genuine state
	// versions by construction).
	lieSeq uint64

	// reg is the flight recorder: deterministic per-phase counters (the
	// conformance suite pins them bit-identical at any worker count) plus
	// the separately-kept wall-clock phase timings. Always armed — the
	// steady-state cost is a handful of uncontended atomic adds per shard
	// per phase.
	reg *introspect.Registry

	// Wake tracing (TraceWakes): while enabled, the compute phase records
	// every attributed wake into its shard's ring segment and the
	// coordinator merges the segments shard-major into wakeRing — the same
	// recycled-report pattern as DrainDirty.
	traceWakes bool
	wakeRing   []introspect.WakeRec

	// lastDrops is the channel's cumulative drop count at the previous
	// sample, so the arbitrate phase can route per-tick deltas into the
	// registry (radio.DropCounter channels only).
	lastDrops uint64
}

// New builds a simulation over the topology with one fresh GRP node per
// topology node.
func New(p Params, topo Topology) *Engine {
	p.normalize()
	nodes := topo.Nodes()
	e := &Engine{
		P:            p,
		Topo:         topo,
		rng:          rand.New(rand.NewSource(p.Seed)),
		order:        NewRoster(len(nodes)),
		computeWheel: newPeriodicWheel(p.Tc),
		recsHold:     p.Tc,
		entsHold:     p.Tc,
		recvEpoch:    1, // fresh records (epoch 0) start invalid
		reg:          introspect.NewRegistry(shard.N),
	}
	for s := range e.shardRNGs {
		e.shardRNGs[s] = rand.New(rand.NewSource(shardSeed(p.Seed, s)))
		sc := &e.scratch[s]
		sc.core.Lists.Take = func(need int) []ident.Entry { return sc.ents.take(need, e.tick-e.entsHold) }
	}
	if p.RandomizedSends {
		e.sendOneshot = newOneshotWheel(p.Ts)
	} else {
		e.sendWheel = newPeriodicWheel(p.Ts)
	}
	// Spatial topologies rebuild their graph with the same worker width
	// as the engine's phases (the sharded build is deterministic at any
	// width, so this is purely a throughput knob).
	if st, ok := topo.(*SpatialTopology); ok && st.World.Workers == 0 {
		st.World.Workers = p.Workers
	}
	// The population is built, not joined n times: what a join would grow
	// is reserved, and every node's first storage is cut from boot's slabs.
	e.recs = make([]nodeRec, 0, len(nodes))
	boot := &bootStore{nodes: core.NewNodes(nodes, p.Cfg), room: make([]int, len(nodes))}
	var count, need [shard.N]int
	g := topo.Graph()
	for i, v := range nodes {
		// The capacity append would have grown to: a cut of exactly the
		// degree moves out at the first new neighbour, in the steady state.
		if d := g.Degree(v); d > 0 {
			boot.room[i] = 1 << bits.Len(uint(d-1))
		}
		count[shard.Of(v)]++
		need[shard.Of(v)] += boot.room[i]
	}
	for s, n := range need {
		boot.sigs[s] = make([]senderVer, 2*n)
		boot.recv[s] = make([]ident.NodeID, n)
		// Slot 0 is where every unjittered node's timers live.
		e.computeWheel.slots[0][s] = make([]wheelEnt, 0, count[s])
		if e.sendWheel != nil {
			e.sendWheel.slots[0][s] = make([]wheelEnt, 0, count[s])
		}
	}
	for _, v := range nodes {
		e.addNode(v, boot)
	}
	return e
}

// bootStore is what New builds its population in: the node slab, and per
// shard (whose nodes one worker at a time works) an arena each for the two
// inbox signatures and the receiver sets, cut by each node's degree in the
// first graph. Cuts are cap-clamped: growing past one moves the slice into
// storage of its own. Nothing is ever returned to a slab; a recycled slot
// allocates. Only pointer-free elements are cut from arenas: an outgrown
// cut of messages would keep alive whatever it last pointed at, so an
// inbox is reserved at the same capacity but allocated on its own.
type bootStore struct {
	nodes []core.Node
	room  []int // per slot: the capacity of the node's cuts
	sigs  [shard.N][]senderVer
	recv  [shard.N][]ident.NodeID
}

// carve cuts n elements off the front of *arena: empty, capacity n.
func carve[T any](arena *[]T, n int) []T {
	s := (*arena)[:0:n]
	*arena = (*arena)[n:]
	return s
}

// NewStatic is shorthand for a fixed-graph simulation.
func NewStatic(p Params, g *graph.G) *Engine {
	return New(p, &StaticTopology{G: g})
}

// addNode joins v: the one place a record is initialised. boot is nil
// mid-run; in New slots are handed out densely, so v's is its place in boot.
func (e *Engine) addNode(v ident.NodeID, boot *bootStore) {
	slot, _ := e.order.Add(v)
	e.memberGen++
	if int(slot) >= len(e.recs) {
		e.recs = append(e.recs, nodeRec{})
	}
	rec := &e.recs[slot]
	// Recycle the record in place: identity-bearing fields reset, buffers
	// (receiver cache, signatures) keep their capacity.
	if boot == nil {
		rec.n = core.NewNode(v, e.P.Cfg)
	} else {
		s, n := shard.Of(v), boot.room[slot]
		rec.n = &boot.nodes[slot]
		rec.n.SetInbox(make([]core.Message, 0, n))
		rec.pending, rec.consumed = carve(&boot.sigs[s], n), carve(&boot.sigs[s], n)
		rec.recv = carve(&boot.recv[s], n)
	}
	rec.n.SetScratch(&e.scratch[shard.Of(v)].core)
	rec.id = v
	rec.gen = e.memberGen
	rec.phase = 0
	rec.cm = cachedMsg{ver: ^uint64(0)} // no broadcast built yet
	rec.recv = rec.recv[:0]
	rec.recvEpoch = 0
	rec.rowRef = nil
	rec.rowMem = 0
	rec.pending = rec.pending[:0]
	rec.consumed = rec.consumed[:0]
	rec.armed, rec.quiet, rec.holdExp = false, core.QuietNone, 0
	rec.fixVer = 0
	rec.memoN = 0
	rec.stateDig, rec.stateDigVer = 0, 0
	rec.seeded = false
	rec.lie, rec.lieVer, rec.lieSize = nil, 0, 0
	if e.P.Jitter {
		rec.phase = e.rng.Intn(e.P.Tc)
	}
	ent := wheelEnt{id: v, slot: slot}
	if e.P.RandomizedSends {
		e.sendOneshot.schedule(ent, e.tick+e.shardRNGs[shard.Of(v)].Intn(e.P.Ts))
	} else {
		e.sendWheel.add(ent, rec.phase)
	}
	e.computeWheel.add(ent, rec.phase)
	if e.dirtyOn {
		e.dirtyAdded = append(e.dirtyAdded, v)
	}
}

// AddNode introduces a fresh node mid-run (it must already be present in
// the topology, e.g. placed in the world or added to the static graph).
func (e *Engine) AddNode(v ident.NodeID) {
	if !e.order.Has(v) {
		e.addNode(v, nil)
	}
}

// RemoveNode makes a node leave: it stops sending and computing, and its
// slot is freed for deterministic recycling. The caller removes it from
// the topology.
func (e *Engine) RemoveNode(v ident.NodeID) {
	slot, ok := e.order.Remove(v)
	if !ok {
		return
	}
	rec := &e.recs[slot]
	e.memberGen++
	if e.P.RandomizedSends {
		e.sendOneshot.removeEverywhere(v)
	} else {
		e.sendWheel.remove(v, rec.phase)
	}
	e.computeWheel.remove(v, rec.phase)
	*rec.n = core.Node{} // New's slab outlives the node: it must not pin its last state
	rec.n = nil
	rec.id = ident.None
	rec.lie, rec.lieVer, rec.lieSize = nil, 0, 0
	// A free slot may never be recycled: it must not pin the last broadcast
	// or the row, a slice of a whole graph generation's adjacency slab.
	rec.cm, rec.rowRef = cachedMsg{}, nil
	if e.dirtyOn {
		e.dirtyRemoved = append(e.dirtyRemoved, RemovedNode{ID: v, Slot: slot})
	}
}

// SetLie arms a Byzantine override on member v: until ClearLie (or v's
// departure), every broadcast v's send timer emits carries m instead of
// v's genuine message, while v's own protocol state keeps evolving
// honestly from what it hears. m must be a well-formed Message with
// m.From == v (internal/fault forges them through a wire codec
// round-trip); the engine retains the pointer, so the caller must not
// mutate m afterwards — install a fresh message to change the lie.
//
// Like AddNode/RemoveNode, SetLie is a coordinator-side membership-layer
// mutation: it must be called between Steps (the fault injector applies
// it at round boundaries), never from inside a phase — that alignment is
// what keeps chaos traces bit-identical at any worker count. It reports
// whether v is currently a member.
func (e *Engine) SetLie(v ident.NodeID, m *core.Message) bool {
	slot := e.order.SlotOf(v)
	if slot < 0 {
		return false
	}
	if m.From != v {
		panic(fmt.Sprintf("engine: SetLie(%v) with message from %v", v, m.From))
	}
	e.lieSeq++
	rec := &e.recs[slot]
	rec.lie = m
	rec.lieVer = 1<<63 | e.lieSeq
	rec.lieSize = m.EncodedSize()
	return true
}

// ClearLie disarms v's Byzantine override; genuine broadcasts resume at
// v's next send. Like SetLie it must only be called between Steps.
func (e *Engine) ClearLie(v ident.NodeID) {
	if slot := e.order.SlotOf(v); slot >= 0 {
		rec := &e.recs[slot]
		rec.lie, rec.lieVer, rec.lieSize = nil, 0, 0
	}
}

// Lying reports whether v currently has a Byzantine override armed.
func (e *Engine) Lying(v ident.NodeID) bool {
	slot := e.order.SlotOf(v)
	return slot >= 0 && e.recs[slot].lie != nil
}

// TrackDirty enables dirty-node reporting. Observers call it once at
// attach time and then DrainDirty after every observation window; nodes
// that computed before tracking was enabled are not reported (a fresh
// observer must do one full sync on its first observation anyway).
func (e *Engine) TrackDirty() { e.dirtyOn = true }

// DrainDirty hands the dirty report accumulated since the previous drain
// to fn and resets it: computed holds, per engine shard, the slots of the
// nodes whose Compute actually ran (shard-major canonical order; a node
// computing k times appears k times; skipped no-op rounds are omitted —
// they leave the view untouched by construction), added the joining IDs
// and removed the departures with the slot each held, both in call order.
// The slices are only valid during fn.
func (e *Engine) DrainDirty(fn func(computed [shard.N][]int32, added []ident.NodeID, removed []RemovedNode)) {
	fn(e.dirtyComputed, e.dirtyAdded, e.dirtyRemoved)
	for s := range e.dirtyComputed {
		e.dirtyComputed[s] = e.dirtyComputed[s][:0]
	}
	e.dirtyAdded = e.dirtyAdded[:0]
	e.dirtyRemoved = e.dirtyRemoved[:0]
}

// Introspect returns the engine's flight recorder. It is always armed;
// every counter it serves is bit-identical at any worker count (the
// wall-clock phase timings, kept in the registry's separate section, are
// the one machine-dependent surface).
func (e *Engine) Introspect() *introspect.Registry { return e.reg }

// TraceWakes toggles per-node wake recording: while on, every executed
// compute appends a WakeRec (node, cause, offending sender) to a recycled
// ring drained with DrainWakes. The per-cause histogram counters are
// always on regardless; the ring exists for per-node traces
// (grpsoak -trace-wakes) and costs nothing while off.
func (e *Engine) TraceWakes(on bool) { e.traceWakes = on }

// DrainWakes hands the wake ring accumulated since the previous drain to
// fn and resets it (keeping capacity). Records are in shard-major
// canonical order per tick, ticks in order — bit-identical at any worker
// count. The slice is only valid during fn.
func (e *Engine) DrainWakes(fn func(wakes []introspect.WakeRec)) {
	fn(e.wakeRing)
	e.wakeRing = e.wakeRing[:0]
}

// Tick returns the current tick count.
func (e *Engine) Tick() int { return e.tick }

// Rand exposes the simulation's global RNG for workload builders that
// must stay in lockstep with the run's determinism.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Order returns the current node population in ascending order (the
// roster's backing slice: read-only, valid until the next membership
// change).
func (e *Engine) Order() []ident.NodeID { return e.order.IDs() }

// SlotOf returns v's roster slot, or NoSlot when v is not a member —
// the ID→slot boundary for observers that mirror the engine's
// slot-indexed bookkeeping.
func (e *Engine) SlotOf(v ident.NodeID) int32 { return e.order.SlotOf(v) }

// IDAtSlot returns the member occupying slot s, or ident.None when the
// slot is free or out of range.
func (e *Engine) IDAtSlot(s int32) ident.NodeID {
	if s < 0 || int(s) >= len(e.recs) {
		return ident.None
	}
	return e.recs[s].id
}

// NodeAtSlot returns the protocol node at slot s, or nil when the slot is
// free or out of range.
func (e *Engine) NodeAtSlot(s int32) *core.Node {
	if s < 0 || int(s) >= len(e.recs) {
		return nil
	}
	return e.recs[s].n
}

// Node returns member v's protocol node, or nil when v is not currently a
// member.
func (e *Engine) Node(v ident.NodeID) *core.Node {
	if slot := e.order.SlotOf(v); slot >= 0 {
		return e.recs[slot].n
	}
	return nil
}

// SlotCap returns the roster's slot table size: every live slot is below
// it, so slot-indexed observer arrays size themselves to it.
func (e *Engine) SlotCap() int { return e.order.SlotCap() }

// pendingUpsert records one delivery in a record's inbox signature: one
// entry per sender, ascending by sender ID, last write wins — mirroring
// the last-wins semantics of core.Node.Receive, so two equal signatures
// imply byte-identical buffered message sets. The second result reports
// that the exact entry was already present, which by the same mirror
// property proves the inbox already buffers this very message as the
// sender's last — the caller can elide the store entirely (in a settled
// world, almost every delivery is such a repeat of an unchanged cached
// broadcast).
func pendingUpsert(p []senderVer, sv senderVer) ([]senderVer, bool) {
	i := sort.Search(len(p), func(i int) bool { return p[i].id >= sv.id })
	if i < len(p) && p[i].id == sv.id {
		if p[i] == sv {
			return p, true
		}
		p[i] = sv
		return p, false
	}
	p = append(p, senderVer{})
	copy(p[i+1:], p[i:])
	p[i] = sv
	return p, false
}

// ExternalDelivery is one reception injected by a distributed wrapper
// (internal/dist): a broadcast built by a remote engine, addressed to a
// local member. Gen and Ver identify the sender's incarnation and the
// state version the broadcast was built at — the same pair a local
// delivery carries in its inbox signature — so the activity skip and the
// repeat-elision work identically across the process boundary. ReceiveRef
// copies Msg's header only: List and Recs stay aliased until the receiver's
// next compute, up to Tc ticks later (dist's ghosts: one decode per frame).
type ExternalDelivery struct {
	To   ident.NodeID
	From ident.NodeID
	Gen  uint64
	Ver  uint64
	Msg  *core.Message
}

// Step advances one tick through the five phases: advance topology, build
// due broadcasts, arbitrate the channel, deliver receptions, run due
// computes. It is exactly AdvancePhase + BuildPhase + FinishTick(nil);
// distributed callers invoke the three parts directly and exchange
// boundary traffic between BuildPhase and FinishTick.
func (e *Engine) Step() {
	e.AdvancePhase()
	e.BuildPhase()
	e.FinishTick(nil)
}

// AdvancePhase runs phase 1 of a tick: the topology moves on the global
// RNG stream. Distributed callers use the split form (AdvancePhase,
// BuildPhase, FinishTick); everyone else calls Step.
func (e *Engine) AdvancePhase() {
	start := time.Now()
	e.Topo.Advance(e.rng)
	e.endPhase(introspect.PhaseAdvance, start)
}

// endPhase accumulates the wall-clock time since start into the
// registry's non-deterministic section — the deterministic counters never
// see a clock. Every phase method times exactly its own body, so whatever
// a distributed caller does between the phases is on nobody's clock.
func (e *Engine) endPhase(p introspect.Phase, start time.Time) {
	e.reg.AddPhaseNs(p, time.Since(start).Nanoseconds())
}

// appendLive appends the current members among ids to dst. dst may alias
// ids' own backing (an in-place filter): the write index never passes the
// read index.
func (e *Engine) appendLive(dst, ids []ident.NodeID) []ident.NodeID {
	for _, u := range ids {
		if e.order.SlotOf(u) >= 0 {
			dst = append(dst, u)
		}
	}
	return dst
}

// BuildPhase runs phase 2 of a tick: every member whose send timer fires
// assembles (or revalidates) its broadcast. It returns the merged
// transmission slate in canonical shard-major order — a read-only view
// of engine-owned storage, valid until the next BuildPhase. The slate is
// retained for FinishTick's arbitration; distributed callers read it to
// route boundary copies of due broadcasts to neighboring shards.
func (e *Engine) BuildPhase() []radio.Tx {
	start := time.Now()

	// The wheel hands each shard exactly its due senders in canonical
	// order; workers draw send backoffs from their shard's private stream,
	// so the draw sequence is independent of the worker count. Broadcasts
	// and receiver sets come from each node's slot-indexed record:
	// messages revalidate against the node's state version, receiver sets
	// against the epoch bumped below on any (topology, membership) change.
	rower, _ := e.Topo.(RowTopology)
	g := e.Topo.Graph()
	if g != e.recvG || g.Generation() != e.recvGen || e.memberGen != e.recvMem {
		// Before invalidating every receiver cache, ask the topology which
		// rows the change could actually have touched: when the graph
		// advanced by exactly one delta step over an unchanged roster, only
		// the returned senders' records are demoted and the overwhelming
		// majority keeps its current epoch — the per-sender row check in
		// the shard loop below never even runs for them.
		dirty, ok := []ident.NodeID(nil), false
		if rower != nil && e.recvG != nil && e.memberGen == e.recvMem {
			dirty, ok = rower.RowsChanged(e.recvG)
		}
		if ok {
			demoted := uint64(0)
			for _, v := range dirty {
				if s := e.order.SlotOf(v); s >= 0 && e.recs[s].recvEpoch == e.recvEpoch {
					e.recs[s].recvEpoch--
					demoted++
				}
			}
			e.reg.Inc(introspect.CtrGraphDeltaRounds)
			e.reg.Add(introspect.CtrRecvRowDemotions, demoted)
		} else {
			e.recvEpoch++
			e.reg.Inc(introspect.CtrGraphFullRounds)
		}
		e.recvG, e.recvGen, e.recvMem = g, g.Generation(), e.memberGen
	}
	var due *shardBuckets
	if e.P.RandomizedSends {
		due = e.sendOneshot.take(e.tick)
	} else {
		due = e.sendWheel.due(e.tick)
	}
	shard.Run(e.P.Workers, func(s, _ int) {
		sc := &e.scratch[s]
		sc.txs = sc.txs[:0]
		sc.bytes = 0
		// Shard-local accumulators, flushed to the shard's registry lane
		// once at the end: the hot loop pays plain integer adds only.
		var builds, cacheHits, recvHits, rowHits, rowRefills, rebuilds uint64
		for _, ent := range due[s] {
			rec := &e.recs[ent.slot]
			if rec.id != ent.id {
				continue // defensive: wheels are maintained on removal
			}
			if e.P.RandomizedSends {
				e.sendOneshot.schedule(ent, e.tick+1+e.shardRNGs[s].Intn(e.P.Ts))
			}
			if rec.recvEpoch == e.recvEpoch {
				recvHits++
			} else {
				// The receiver cache is stale on the coarse key (graph or
				// membership changed somewhere). Before re-deriving, try the
				// fine-grained row check: a RowTopology serving the very
				// same row under the same membership generation proves this
				// sender's receiver set is untouched. Refilling the record's
				// recycled slice is safe: transmissions referencing the old
				// backing were consumed within their own tick.
				if row, ok := rowFor(rower, ent.id); ok {
					if rec.rowMem == e.memberGen && sameRow(rec.rowRef, row) {
						rowHits++
					} else {
						rowRefills++
						rec.recv = e.appendLive(rec.recv[:0], row)
						rec.rowRef = row
						rec.rowMem = e.memberGen
					}
				} else {
					rebuilds++
					buf := e.Topo.AppendReceivers(ent.id, rec.recv[:0])
					rec.recv = e.appendLive(buf[:0], buf)
					rec.rowRef = nil
				}
				rec.recvEpoch = e.recvEpoch
			}
			if rec.lie != nil {
				// A Byzantine liar transmits its forged frame instead of
				// assembling a genuine broadcast; the deliver phase
				// resolves its receptions to the lie.
				sc.txs = append(sc.txs, radio.Tx{Sender: ent.id, Receivers: rec.recv})
				sc.bytes += rec.lieSize
				continue
			}
			if rec.cm.ver != rec.n.Version() {
				builds++
				m := rec.n.BuildMessageIn(sc.recs.take(rec.n.RecsNeeded(), e.tick-e.recsHold))
				sc.retire(&rec.cm.m, m.List, e.tick)
				rec.cm = cachedMsg{m: m, size: m.EncodedSize(), ver: rec.n.Version()}
			} else {
				cacheHits++
			}
			sc.txs = append(sc.txs, radio.Tx{Sender: ent.id, Receivers: rec.recv})
			sc.bytes += rec.cm.size
		}
		sc.sweep(e)
		lane := e.reg.Shard(s)
		lane.Add(introspect.CtrMsgBuilds, builds)
		lane.Add(introspect.CtrMsgCacheHits, cacheHits)
		lane.Add(introspect.CtrRecvCacheHits, recvHits)
		lane.Add(introspect.CtrRecvRowHits, rowHits)
		lane.Add(introspect.CtrRecvRowRefills, rowRefills)
		lane.Add(introspect.CtrRecvRebuilds, rebuilds)
	})
	if e.P.RandomizedSends {
		e.sendOneshot.reset(e.tick)
	}

	// Merge the shard results in shard-major order — the canonical slot
	// order the channel sees, identical at any worker count.
	txs := e.txsBuf[:0]
	for s := range e.scratch {
		sc := &e.scratch[s]
		txs = append(txs, sc.txs...)
		e.reg.Add(introspect.CtrMessagesSent, uint64(len(sc.txs)))
		e.reg.Add(introspect.CtrBytesSent, uint64(sc.bytes))
	}
	e.txsBuf = txs
	e.endPhase(introspect.PhaseBuild, start)
	return e.txsBuf
}

// BroadcastOf returns member v's current broadcast as the deliver phase
// would resolve it — the (version-validated) cached message, or the
// armed Byzantine lie — together with the (incarnation, version) pair
// its deliveries are signed with. ok is false when v is not a member or
// its send timer has not fired yet this run (no broadcast built). The
// message aliases engine-owned storage (records and list entries return to
// the shard's pools): it is valid until v's next rebuild and for Tc ticks
// after, and must not be mutated. Distributed wrappers call this after
// BuildPhase to encode boundary copies of due broadcasts.
func (e *Engine) BroadcastOf(v ident.NodeID) (m *core.Message, gen, ver uint64, ok bool) {
	slot := e.order.SlotOf(v)
	if slot < 0 {
		return nil, 0, 0, false
	}
	rec := &e.recs[slot]
	if rec.lie != nil {
		return rec.lie, rec.gen, rec.lieVer, true
	}
	if rec.cm.ver == ^uint64(0) {
		return nil, 0, 0, false
	}
	return &rec.cm.m, rec.gen, rec.cm.ver, true
}

// PublishForeign replaces *cur, the broadcast of a sender v that lives in
// another process, by m, which a distributed wrapper decoded into scratch
// storage of its own (nothing of m is kept). It is a local rebuild's twin:
// the copy goes into records and list entries of v's shard's pools (offsets
// interned, an unchanged list shared with cur's), what it replaces retires
// to them, and so one rule holds for both — receivers alias a delivered
// broadcast until their next compute, hence storage sits out Tc ticks
// (SetRecsHold) and is poisoned, under SetSelfCheck, in the tick it may be
// taken again. To be called between BuildPhase and FinishTick; *cur may
// then be delivered through ExternalDelivery.Msg.
func (e *Engine) PublishForeign(v ident.NodeID, cur *core.Message, m core.Message) {
	sc := &e.scratch[shard.Of(v)]
	recs := sc.recs.take(len(m.Recs), e.tick-e.recsHold)
	if cap(recs) < len(m.Recs) {
		recs = slices.Grow([]core.PrioRec(nil), len(m.Recs))
	}
	m.Recs = append(recs[:0], m.Recs...)
	m.List = m.List.Publish(cur.List, &sc.core.Lists)
	sc.retire(cur, m.List, e.tick)
	*cur = m
}

// FinishTick runs phases 3–5 of a tick: arbitrate the channel over the
// slate BuildPhase produced, deliver the receptions (plus any externally
// injected ones), run due computes, and close the tick. ext carries
// cross-process receptions from a distributed wrapper; they join the
// local deliveries in the same partition-by-receiver-shard path,
// including the signature upkeep and the repeat-elision. Order between
// local and external deliveries is immaterial to the trace: receivers
// keep one last-write-wins buffer per sender and a sender transmits at
// most once per tick, so no receiver ever sees two deliveries from the
// same sender in one tick. Step is FinishTick(nil).
func (e *Engine) FinishTick(ext []ExternalDelivery) {
	e.arbitrate()
	e.deliver(ext)
	e.compute()
}

// arbitrate runs phase 3: the channel decides, on the global RNG stream
// and sequentially, which receptions of BuildPhase's slate succeed. The
// result stays in delivBuf for the deliver phase.
func (e *Engine) arbitrate() {
	e.delivBuf = e.delivBuf[:0]
	if len(e.txsBuf) == 0 {
		return
	}
	start := time.Now()
	e.delivBuf = e.P.Channel.AppendDeliverSlot(e.txsBuf, e.rng, e.delivBuf)
	// Route the channel's suppressed-delivery count into the registry as a
	// per-tick delta (drops only move inside AppendDeliverSlot, so the running
	// total equals the channel's own cumulative counter).
	if dc, ok := e.P.Channel.(radio.DropCounter); ok {
		if d := dc.DroppedDeliveries(); d != e.lastDrops {
			e.reg.Add(introspect.CtrRadioDrops, d-e.lastDrops)
			e.lastDrops = d
		}
	}
	e.endPhase(introspect.PhaseArbitrate, start)
}

// deliver runs phase 4: the receptions arbitrate left in delivBuf, plus
// ext, are partitioned by receiver shard on the coordinator — with the
// receiver record and sender message resolved up front (the two ID→slot
// probes here are the radio contract's boundary) — then stored in
// parallel: each node's inbox and signature are only ever touched by its
// own shard's worker.
func (e *Engine) deliver(ext []ExternalDelivery) {
	if len(e.txsBuf) == 0 && len(ext) == 0 {
		return
	}
	start := time.Now()
	for s := range e.scratch {
		e.scratch[s].deliv = e.scratch[s].deliv[:0]
	}
	delivs := uint64(0)
	for _, d := range e.delivBuf {
		toSlot := e.order.SlotOf(d.To)
		if toSlot < 0 {
			continue
		}
		delivs++
		fromSlot := e.order.SlotOf(d.From)
		if fromSlot < 0 {
			// A channel implementation fabricated or replayed a delivery
			// from a sender that is no longer (or never was) live: count
			// it, deliver nothing.
			continue
		}
		from := &e.recs[fromSlot]
		msg, ver := &from.cm.m, from.cm.ver
		if from.lie != nil {
			msg, ver = from.lie, from.lieVer
		}
		sc := &e.scratch[shard.Of(d.To)]
		sc.deliv = append(sc.deliv, resolvedDelivery{
			to:   &e.recs[toSlot],
			msg:  msg,
			from: senderVer{id: d.From, gen: from.gen, ver: ver},
		})
	}
	// External receptions (distributed wrapper): the sender's record lives
	// in another process, so the (gen, ver) signature arrives resolved;
	// only the receiver is looked up locally. Appending after the local
	// partition keeps each scratch list single-writer; within a shard the
	// relative order is irrelevant (see FinishTick).
	for _, x := range ext {
		toSlot := e.order.SlotOf(x.To)
		if toSlot < 0 {
			continue
		}
		delivs++
		sc := &e.scratch[shard.Of(x.To)]
		sc.deliv = append(sc.deliv, resolvedDelivery{
			to:   &e.recs[toSlot],
			msg:  x.Msg,
			from: senderVer{id: x.From, gen: x.Gen, ver: x.Ver},
		})
	}
	e.reg.Add(introspect.CtrDeliveries, delivs)
	shard.Run(e.P.Workers, func(s, _ int) {
		var elided uint64
		for _, d := range e.scratch[s].deliv {
			if d.from.ver == ^uint64(0) {
				// An unbuilt broadcast (fabricated delivery) is a zero
				// Message that Receive drops; it never enters the inbox, so
				// it must not enter the signature either.
				d.to.n.ReceiveRef(d.msg)
				continue
			}
			var dup bool
			d.to.pending, dup = pendingUpsert(d.to.pending, d.from)
			if !dup {
				d.to.n.ReceiveRef(d.msg)
			} else {
				elided++
			}
		}
		e.reg.Shard(s).Add(introspect.CtrDeliveriesElided, elided)
	})
	e.endPhase(introspect.PhaseDeliver, start)
}

// compute runs phase 5, activity-driven, and closes the tick. skipGate
// decides every due node: a licensed replay (WakeQuietReplay) is applied
// in O(1); any other cause gets the fixpoint memo's content-aware second
// chance (memoReplay) and, failing that, runs the full Compute with that
// cause as its wake attribution — so every executed compute carries
// exactly one cause and the per-cause histogram accounts for 100% of the
// computes run. On an eager engine (SetSkipMode) the decision is taken
// but not acted on: a licensed replay computes anyway and is the only
// source of WakeQuietReplay counts.
func (e *Engine) compute() {
	start := time.Now()
	cdue := e.computeWheel.due(e.tick)
	memoOn := !e.eager && !e.noMemo
	shard.Run(e.P.Workers, func(s, _ int) {
		sc := &e.scratch[s]
		sc.wakes = sc.wakes[:0]
		var ran, skipFix, skipLonely, skipHeld, skipMemo uint64
		var wk [introspect.NumWakeCauses]uint64
		for _, ent := range cdue[s] {
			rec := &e.recs[ent.slot]
			if rec.id != ent.id {
				continue // defensive: wheels are maintained on removal
			}
			cause, offender := skipGate(rec)
			if cause == introspect.WakeQuietReplay && !e.eager {
				switch rec.quiet {
				case core.QuietLonely:
					rec.n.SkipLonelyRound()
					skipLonely++
				case core.QuietHeld:
					rec.n.SkipQuietRound()
					skipHeld++
				default:
					rec.n.SkipQuietRound()
					skipFix++
				}
				rec.fixVer = rec.n.Version()
				rec.pending = rec.pending[:0]
				continue
			}
			var preInbox uint64
			probed := false
			if memoOn {
				var replayed bool
				if preInbox, probed, replayed = rec.memoReplay(); replayed {
					skipMemo++
					continue
				}
			}
			wk[cause]++
			if e.traceWakes {
				sc.wakes = append(sc.wakes, introspect.WakeRec{Node: ent.id, Cause: cause, Sender: offender})
			}
			rec.n.Compute()
			rec.seeded = true
			q := rec.n.RoundQuietness()
			if q != core.QuietNone {
				rec.pending, rec.consumed = rec.consumed[:0], rec.pending
				rec.armed = true
				rec.quiet = q
				if q == core.QuietHeld {
					rec.holdExp = rec.n.HoldHorizon()
				}
			} else {
				rec.armed = false
				rec.pending = rec.pending[:0]
			}
			rec.fixVer = rec.n.Version()
			// Fixpoint memo maintenance (skipped in the modes that never
			// read it): refresh the cached state digest — the compute may
			// have moved the state — and, when a *probed* round just proved
			// itself a fixpoint of the inbox whose digest the probe
			// captured, record the (state, inbox) content proof. Only
			// probed rounds store: hashing the inbox of every executed
			// compute costs more than the memo returns (most runs are
			// self-active wakes that never produce a storable proof, and
			// the first quiet round after real activity is the signature
			// skip's case until the window churns, at which point the
			// re-probe seeds the memo). A round that entered the too-far
			// contest read priorities the masked inbox digest does not
			// cover, so its proof would overclaim
			// (core.Node.RoundOverflowed). Stale proofs for content the
			// node has drifted away from stay in the table — they are
			// facts, not caches, and the boundary oscillation this memo
			// targets revisits them.
			if memoOn {
				rec.stateDig = rec.n.StateDigest()
				rec.stateDigVer = rec.n.Version()
				if probed && (q == core.QuietFixpoint || q == core.QuietHeld) && !rec.n.RoundOverflowed() {
					rec.memoStore(rec.stateDig, preInbox)
				}
			}
			ran++
			if e.dirtyOn {
				e.dirtyComputed[s] = append(e.dirtyComputed[s], ent.slot)
			}
		}
		lane := e.reg.Shard(s)
		lane.Add(introspect.CtrComputesRun, ran)
		lane.Add(introspect.CtrComputesSkipped, skipFix+skipLonely+skipHeld+skipMemo)
		lane.Add(introspect.CtrSkipFixpoint, skipFix)
		lane.Add(introspect.CtrSkipLonely, skipLonely)
		lane.Add(introspect.CtrSkipHeld, skipHeld)
		lane.Add(introspect.CtrSkipMemo, skipMemo)
		for c, n := range wk {
			lane.Add(introspect.WakeCause(c).Counter(), n)
		}
	})
	if e.traceWakes {
		for s := range e.scratch {
			e.wakeRing = append(e.wakeRing, e.scratch[s].wakes...)
		}
	}
	e.reg.Inc(introspect.CtrTicks)
	e.tick++
	e.endPhase(introspect.PhaseCompute, start)
}

// skipGate is the activity-skip decision and its explanation in one walk
// over the record's gates, in evaluation order. WakeQuietReplay means
// every gate held: the node's last executed round was quiet (armed), its
// state version is untouched since (fixVer — LoadState and any other
// external mutation disarm via this), a held round is still short of its
// boundary-memory horizon, and the inbox signature of this window equals
// the one the quiet round consumed — the round provably reproduces itself
// and the scheduler may replay it. Any other cause names the first gate
// that broke, which is what the flight recorder logs when the compute
// then runs; for the inbox-signature causes the second result is the
// first offending sender in signature (ascending ID) order: the node
// whose fresh traffic — or silence — woke this one.
//
// The two sorted signatures are walked once, in lockstep while the sender
// set (id and incarnation) agrees. A version that moved on the way is
// only remembered: if the sets agree to the end, the window is exactly
// the shape the fixpoint memo covers (WakeMemoMiss — the walk reads the
// signatures only, never the memo table, so the histogram is a pure
// function of the trace in every mode); if the set changes further on,
// the remembered mover was the first divergence and is plain fresh
// traffic — a later set change must not read as version-only churn.
func skipGate(rec *nodeRec) (introspect.WakeCause, ident.NodeID) {
	switch {
	case !rec.seeded:
		return introspect.WakeFresh, ident.None
	case !rec.armed:
		return introspect.WakeSelfActive, ident.None
	case rec.n.Version() != rec.fixVer:
		return introspect.WakeVersionBump, ident.None
	case rec.quiet == core.QuietHeld && rec.n.Computes() >= rec.holdExp:
		return introspect.WakeHoldExpiry, ident.None
	}
	p, c := rec.pending, rec.consumed
	i, moved := 0, -1
	for i < len(p) && i < len(c) && p[i].id == c[i].id && p[i].gen == c[i].gen {
		if moved < 0 && p[i].ver != c[i].ver {
			moved = i
		}
		i++
	}
	switch {
	case i == len(p) && i == len(c):
		if moved >= 0 {
			return introspect.WakeMemoMiss, p[moved].id
		}
		return introspect.WakeQuietReplay, ident.None
	case moved >= 0:
		return introspect.WakeInboxNew, p[moved].id
	case i == len(c) || (i < len(p) && p[i].id <= c[i].id):
		// An entry pending has that consumed lacks (or carries under
		// another incarnation) is fresh traffic …
		return introspect.WakeInboxNew, p[i].id
	default:
		// … an entry only consumed has is a sender gone silent
		// (departure, movement, or a stopped broadcast).
		return introspect.WakeInboxLost, c[i].id
	}
}

// memoReplay is the skip decision's content-aware second chance
// (DESIGN.md §2.3), taken when skipGate named a broken gate — sender
// versions moved, the sender set changed, or the node's own last round
// was not quiet: if the memo holds a proof that this exact (state
// content, inbox content) pair is a fixpoint, the round is a replay of a
// round already executed — a re-probe cycle oscillating the node (and its
// neighbors' broadcasts) through content it has visited before — and is
// applied here. The version-stamp gate fences off external state
// mutations (LoadState, PoisonBoundary bump the version past
// stateDigVer), and the hold-horizon gate keeps the replayed round's
// expiry filter a no-op — the compute counter, which the replay advances
// exactly like a real compute, can then never feed the expiry jitter: a
// proven-quiet round rejects nobody, so the jitter hash is unreachable.
// The inbox digest is the read-masked projection
// (core.Node.InboxReadDigest): content only unread records carry — a
// double-marked mover's ticking clock echoed through a border node's
// broadcast — cannot break the match, and the equal state digest pins the
// mask itself, because the tracked-ID set it projects onto is part of the
// hashed state.
//
// probed reports that both gates held and inbox is this window's digest:
// when the round then executes and proves quiet, the caller stores the
// pair — the memo seeds itself on re-probes, whose digests are already
// paid for.
func (rec *nodeRec) memoReplay() (inbox uint64, probed, replayed bool) {
	if !rec.seeded || rec.n.Version() != rec.stateDigVer {
		return 0, false, false
	}
	hh := rec.n.HoldHorizon()
	if hh != 0 && rec.n.Computes() >= hh {
		return 0, false, false
	}
	inbox = rec.n.InboxReadDigest()
	if !rec.memoHit(rec.stateDig, inbox) {
		return inbox, true, false
	}
	rec.n.SkipQuietRound()
	rec.quiet = core.QuietFixpoint
	if hh != 0 {
		rec.quiet = core.QuietHeld
		rec.holdExp = hh
	}
	// The replayed round consumed this window's signature: swap it into
	// consumed exactly as the executed path does, and re-arm — follow-up
	// identical windows take skipGate's cheap path.
	rec.armed = true
	rec.fixVer = rec.n.Version()
	rec.pending, rec.consumed = rec.consumed[:0], rec.pending
	return inbox, true, true
}

// rowFor fetches the receiver row view from a RowTopology, tolerating a
// topology that serves no rows (nil rower or a false return).
func rowFor(rower RowTopology, v ident.NodeID) ([]ident.NodeID, bool) {
	if rower == nil {
		return nil, false
	}
	return rower.ReceiverRow(v)
}

// sameRow reports whether two row views are the same storage: identical
// length and, when non-empty, identical backing. Rows are immutable once
// shared, so identity implies identical content.
func sameRow(a, b []ident.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// StepTicks advances k ticks.
func (e *Engine) StepTicks(k int) {
	for i := 0; i < k; i++ {
		e.Step()
	}
}

// StepRound advances one full compute period (Tc ticks): every node sends
// at least Tc/Ts times and computes at least once — the fair-channel
// window τ1.
func (e *Engine) StepRound() { e.StepTicks(e.P.Tc) }

// SnapshotGraph returns the topology graph restricted to the live
// protocol nodes — the G half of metrics.SnapshotOf without materializing
// any view map. It comes from snapshotBuilder: the cached pointer while
// neither topology nor membership changed, otherwise a copy-on-write
// sibling of the topology's graph (every node live) or a copy of the
// induced subgraph. Incremental observers key their per-node neighborhood
// caches on its (pointer, generation) identity; it is replaced, never
// mutated, when the topology or the membership changes. Call it between
// ticks: it marks the topology's graph shared, and so costs the next
// delta a header copy.
func (e *Engine) SnapshotGraph() *graph.G {
	return e.snap.Graph(e.Topo.Graph(), e.memberGen, e.order.Has)
}

// LiveGraph is SnapshotGraph for a reader that is done with the graph
// before the next tick (the tracker's Observe): see snapshotBuilder.Live.
func (e *Engine) LiveGraph() *graph.G {
	return e.snap.Live(e.Topo.Graph(), e.memberGen, e.order.Has)
}
