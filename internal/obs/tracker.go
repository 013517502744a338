// Package obs is the incremental observability subsystem: it maintains
// the Ω-partition of the Dynamic Group Service (the groups the metrics
// predicates are defined over) across rounds instead of re-deriving it
// from a full snapshot, and evaluates the specification predicates (ΠA,
// ΠS, ΠM and the transition predicates ΠT, ΠC) by re-examining only the
// nodes whose view or neighborhood actually changed.
//
// The brute-force path — metrics.SnapshotOf plus the metrics predicates —
// survives unchanged as the test oracle: obs must produce identical
// results, and the property tests in this package enforce that on random
// churning worlds. What obs changes is the cost model: a round where k of
// n nodes changed view and j nodes changed neighborhood costs O(k+j)
// group work — the j come from the source's changed-row record, not from
// a sweep over every neighborhood — plus one walk of the boundary edges
// when the topology or the partition moved, instead of the oracle's
// O(n·k̄²) full re-derivation with a map and a canonical string per node.
//
// Per-node bookkeeping is slot-indexed, mirroring the roster slots the
// Source serves (engine.Roster): the per-node cache, the affected-set
// epoch stamps and the shard worklists index flat arrays by slot, so the
// steady-state round touches no per-node map at all. ID-keyed lookups
// survive only where an ID may legitimately not be a member: the moved
// views the Source hands over (a node may have left since) and view
// contents (a view can retain a departed node or name a fabricated one),
// both resolved through the roster's slot table, and the group index
// keyed by representative.
//
// Parallel phases follow the engine's discipline (internal/shard): work
// is sharded by NodeID into the shard.N fixed shards or into slot-indexed
// worklists, every parallel callback writes only shard-, slot- or
// worker-local state, and every merge happens in canonical order, so the
// observed statistics are bit-identical at any worker count.
//
// The tracker assumes every live protocol node is present in the
// engine's topology graph at observation time — apply membership churn
// (place/add, remove) between rounds, before the next Step, so a spatial
// topology has advanced its cached graph over the change. This is the
// natural soak-harness pattern; a node added after the last Step of a
// window would otherwise be live but absent from the snapshot graph, a
// configuration the brute-force oracle cannot express either.
package obs

import (
	"cmp"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/shard"
)

// RoundStats is one observation: the partition statistics and predicate
// verdicts after the rounds stepped since the previous Observe call. The
// JSON field names are the sink record format documented in DESIGN.md.
type RoundStats struct {
	Round int `json:"round"` // Observe calls so far
	Tick  int `json:"tick"`  // engine tick at observation time

	Nodes int `json:"nodes"`
	Edges int `json:"edges"`

	Groups     int     `json:"groups"`
	Singletons int     `json:"singletons"`
	MeanSize   float64 `json:"mean_size"`

	Agreement  bool `json:"pi_a"`
	Safety     bool `json:"pi_s"`
	Maximality bool `json:"pi_m"`
	Converged  bool `json:"converged"` // ΠA ∧ ΠS ∧ ΠM

	SafeGroups int     `json:"safe_groups"`
	SafetyRate float64 `json:"safety_rate"`

	// Transition predicates against the previously observed
	// configuration (both true on the first observation).
	Topological          bool `json:"pi_t"`
	Continuity           bool `json:"pi_c"`
	ContinuityViolations int  `json:"pi_c_violations"` // nodes whose Ω lost a member
	MembershipChanges    int  `json:"membership_changes"`

	ExternalEdges int `json:"nee"`

	// Cumulative engine traffic counters.
	MessagesSent int `json:"msgs"`
	Deliveries   int `json:"delivs"`

	// RadioDrops is the channel's cumulative suppressed-delivery count,
	// when the engine's channel counts (radio.DropCounter) — 0 otherwise.
	// Surfacing it lets chaos runs correlate loss bursts with violations.
	RadioDrops int `json:"radio_drops"`
}

// nodeState is the tracker's per-node cache, held in a slot-indexed array
// mirroring the engine's roster slots. id identifies the occupant
// (ident.None marks a free slot — slots recycle under churn, so every
// slot-derived access validates against it).
type nodeState struct {
	id      ident.NodeID
	good    bool           // local agreement check holds (Ω = view)
	view    []ident.NodeID // the node's own view, ascending
	spare   []ident.NodeID // view's other buffer: the two swap on a change
	grp     *group         // current Ω record
	born    int            // round the state was created (suppresses ΠC on arrival)
	topoRnd int            // round v was last marked topology-dirty
}

// memberRef pairs a live node's identity with its engine slot: the shape
// the affected set carries, so downstream phases index the slot array
// directly while every canonical-order decision still compares IDs. A ref
// is valid while nodes[slot].id == id; the affected set, which can
// outlive the referent across in-window churn, re-validates before use.
type memberRef struct {
	id   ident.NodeID
	slot int32
}

// group is one Ω record. Its membership is immutable while it is live:
// any partition change produces another record, so records are shared by
// their members and compared by pointer. A record owns its members'
// storage and is written again one Observe after detach destroyed it.
type group struct {
	rep     ident.NodeID   // minimum member — the unique representative
	at      int32          // index in its shard's list t.reps while live
	members []ident.NodeID // ascending; len ≥ 1; the record's own copy
	refs    int            // nodes currently assigned to this record

	stretched bool // induced diameter > dmax in the last evaluated graph
	evalRound int  // round of that evaluation (dedup stamp)
	// topoGen is a stamp unique tracker-wide (restamp), taken on creation,
	// fresh or reused, and when a member's neighborhood changes: a ΠM
	// verdict holds while neither of its two records is restamped.
	topoGen   uint64
	nearRnd   int   // round a member's neighbor last changed record
	upEdges   int   // edges to the groups above it, counted at its last rescan
	upAt, upN int32 // its run in its shard's verdicts: the pairs above it, as of the last scan
}

// pairVerdict is the ΠM verdict of a pair (a, b) with b above a, held in
// a's run: valid while a keeps its stamp (restamp empties the run) and b
// holds tb.
type pairVerdict struct {
	b         *group
	tb        uint64 // b's topoGen at evaluation
	mergeable bool
}

// GroupTracker incrementally observes one engine run (or, through a
// distributed Source, one logical run spread over several engines).
type GroupTracker struct {
	e       Source
	ro      *engine.Roster // e's, resolved once: slots are looked up per boundary edge
	dmax    int
	workers int

	round  int
	synced bool

	nodes    []nodeState         // engine slot → cache (id validates)
	affEpoch []int               // engine slot → round last marked affected
	groups   ident.Table[*group] // representative → current record
	reps     [shard.N][]*group   // live records by their representative's shard, unordered
	parked   []*group            // destroyed this Observe: still read (ΠC, reborn, ΠS)
	free     []*group            // destroyed before it: poisoned, newGroup's to write

	// Aggregates over the live partition, maintained on every record
	// create/destroy and verdict flip — never recomputed by scanning.
	badNodes     int // nodes failing the local agreement check (ΠA ⇔ 0)
	groupCount   int
	singletonCnt int
	memberSum    int // Σ|members| over records (= live node count at rest)
	stretchedCnt int // records with induced diameter > dmax (ΠS ⇔ 0)

	// Graph cache key. A graph is never edited in place, so the pointer is
	// its identity: holding prevG keeps that graph alive, and the GC cannot
	// hand its address to a new one.
	prevG *graph.G

	stamp    uint64 // last topoGen handed out
	scanned  uint64 // stamp at the last scan: a record stamped above it changed since
	nee      int    // external edges, summed over the shards
	mergeCnt int    // mergeable pairs, summed over the shards

	// Scratch (coordinator-owned).
	ob        observation
	shards    [shard.N]trackerShard
	ws        []*workerScratch
	affected  []memberRef
	topoDirty []int32 // slots whose neighborhood changed
	added     []ident.NodeID
	removed   []engine.RemovedNode
	reborn    []rebornRec
	evalList  []*group
	boolRes   []bool
	agree     []bool // regroup's verdict for each affected node, by index
}

// observation is what one Observe's phases hand each other. drain sets
// it afresh; it is a field, so an observation allocates nothing for it.
type observation struct {
	first   bool           // no earlier observation: every live node is added
	views   []*Views       // the moved views (Source.DrainViews)
	g       *graph.G       // the live graph observed
	rows    []ident.NodeID // members whose row changed (Source.DrainRows)
	allRows bool           // the source cannot tell which rows changed

	topoChanged      bool // first, or g is not the graph observed last
	changedPartition bool // a record was created or destroyed
	piT              bool // ΠT: false once a non-singleton group loses a member to a departure
	piCViolations    int  // nodes whose Ω lost a member
	membership       int  // nodes whose Ω changed
}

// trackerShard is one shard's parallel-phase output buffers.
type trackerShard struct {
	changed  []changeRec
	verdicts []pairVerdict // the runs of the records listed here
	spare    []pairVerdict // verdicts' other buffer: the two swap every scan
	nee      int           // boundary edges counted by those groups
	merges   int           // mergeable pairs among verdicts
}

type changeRec struct {
	slot    int32
	v       ident.NodeID
	oldView []ident.NodeID // the slot's spare: valid until its next extraction, read by collectAffected
}

// rebornRec remembers the previous Ω of a node that was removed and
// re-added within one observation window: the bracketing-snapshot
// semantics of ΠC still compare its old group against its new one.
type rebornRec struct {
	v   ident.NodeID
	old []ident.NodeID
}

// NewGroupTracker attaches a tracker to the engine. Dmax comes from the
// engine's protocol config, the worker width from its Params (a pure
// throughput knob — results are identical at any width). The first
// Observe performs a full synchronization, so a tracker may be attached
// to an engine that has already stepped.
func NewGroupTracker(e *engine.Engine) *GroupTracker {
	return NewGroupTrackerSource(EngineSource(e))
}

// NewGroupTrackerSource attaches a tracker to any Source — the seam the
// distributed lead (internal/dist) observes its merged shard reports
// through. Semantics are identical to NewGroupTracker.
func NewGroupTrackerSource(src Source) *GroupTracker {
	t := &GroupTracker{e: src, ro: src.Roster(), dmax: src.Dmax(), workers: src.Workers()}
	t.ws = make([]*workerScratch, shard.Width(t.workers))
	for i := range t.ws {
		t.ws[i] = newWorkerScratch()
	}
	src.TrackRows()
	return t
}

// firstSync builds what the first observation of n members would
// otherwise grow one join at a time: n group records with one-member
// storage on the free list (newGroup's only source), and every slot's two
// view buffers, Dmax+1 members each. Every cut is cap-clamped; a record
// or buffer that outgrows its own allocates.
func (t *GroupTracker) firstSync(n int) {
	t.groups = ident.Table[*group]{}
	recs, members := make([]group, n), make([]ident.NodeID, n)
	t.free = slices.Grow(t.free, n)
	for i := range recs {
		recs[i].members = members[i : i : i+1]
		t.free = append(t.free, &recs[i])
	}
	k := t.dmax + 1
	views := make([]ident.NodeID, 2*k*len(t.nodes))
	for i := range t.nodes {
		st, at := &t.nodes[i], 2*k*i
		st.view, st.spare = views[at:at:at+k], views[at+k:at+k:at+2*k]
	}
}

// slotOf resolves v to its slot when v is a tracked member, else -1. Used
// where the ID may legitimately be dead (view contents, neighbors, the
// changed-row record): a departed or fabricated ID is a miss, nothing
// more. Slot-carrying paths index t.nodes directly.
func (t *GroupTracker) slotOf(v ident.NodeID) int32 {
	s := t.ro.SlotOf(v)
	if s < 0 || t.nodes[s].id != v {
		return -1
	}
	return s
}

// Observe processes everything that happened since the previous call
// (any number of engine ticks) and returns the statistics of the current
// configuration. The transition predicates (ΠT, ΠC) compare against the
// previously observed configuration, exactly like feeding the two
// bracketing engine.Snapshots to metrics.Topological/ContinuityViolations.
func (t *GroupTracker) Observe() RoundStats {
	t.round++
	t.drain()
	t.applyMembership()
	if t.ob.topoChanged {
		t.markTopoDirty()
		t.refreshPiT()
	}
	t.ob.piT = t.ob.piT && t.stretchedCnt == 0 // sampled before the partition moves
	t.extractViews()
	t.collectAffected()
	t.regroup()
	t.updatePartition()
	t.evalStretched() // ΠS over the records updatePartition created
	if t.ob.topoChanged || t.ob.changedPartition {
		t.scanPairs(t.ob.g)
	}
	return t.record()
}

// drain sizes the slot-indexed arrays to the source's slot table, turns
// the records the last observation parked into free ones, poisoned so that
// a stale alias reads no plausible group, and drains the membership changes
// into t.added and t.removed, and the moved views, the changed-row record
// and the live graph into t.ob. On the first observation every live node
// is added, whatever the report says, and firstSync presizes storage.
func (t *GroupTracker) drain() {
	t.ob = observation{first: !t.synced, piT: true}
	if c := t.ro.SlotCap(); len(t.nodes) < c {
		t.nodes = append(t.nodes, make([]nodeState, c-len(t.nodes))...)
		t.affEpoch = append(t.affEpoch, make([]int, c-len(t.affEpoch))...)
	}
	for _, grp := range t.parked {
		clear(grp.members)
		grp.rep = ident.None
	}
	t.free, t.parked = append(t.free, t.parked...), t.parked[:0]
	views, added, removed := t.e.DrainViews()
	t.ob.views = views
	t.added, t.removed = append(t.added[:0], added...), append(t.removed[:0], removed...)
	if t.ob.first {
		t.added, t.removed = append(t.added[:0], t.ro.IDs()...), t.removed[:0]
		t.synced = true
		t.firstSync(len(t.added))
	}
	t.ob.rows, t.ob.allRows = t.e.DrainRows()
	t.ob.g = t.e.LiveGraph()
	t.ob.topoChanged = t.ob.first || t.ob.g != t.prevG
}

// applyMembership applies t.removed, then t.added, and starts the affected
// set. A removal marks the members of the departed node's last view (a
// node whose check held with it in its view shared that view) and drops
// the cache. A node removed and re-added inside the window is a state
// reset: its old Ω goes to t.reborn for ΠC and it joins t.added, to come
// back possibly on another slot. A departure from a non-singleton group
// breaks ΠT outright: the distance to the others is infinite in the new
// topology (the record dissolves this round, every survivor regrouping
// away from it). An addition starts a good singleton, its initial view
// {a}, marked affected; its view, which the source hands over with every
// addition, confirms or corrects it. Its slot's epoch stamp is reset, so
// that a mark against an earlier occupant within the window cannot
// suppress its regroup.
func (t *GroupTracker) applyMembership() {
	t.affected = t.affected[:0]
	t.reborn = t.reborn[:0]
	for _, r := range t.removed {
		if int(r.Slot) >= len(t.nodes) || t.nodes[r.Slot].id != r.ID {
			continue // never tracked, or the slot was never synced
		}
		st := &t.nodes[r.Slot]
		if t.ro.SlotOf(r.ID) >= 0 {
			t.added = append(t.added, r.ID)
			t.reborn = append(t.reborn, rebornRec{v: r.ID, old: st.grp.members})
		} else if len(st.grp.members) > 1 {
			t.ob.piT = false
		}
		t.markView(st.view)
		if !st.good {
			t.badNodes--
		}
		t.detach(st.grp)
		st.id, st.grp, st.view = ident.None, nil, st.view[:0]
		t.ob.changedPartition = true
	}
	for _, a := range t.added {
		slot := t.ro.SlotOf(a)
		if slot < 0 || t.nodes[slot].id == a {
			continue // added and removed again within the window, or a duplicate report
		}
		st := &t.nodes[slot]
		st.id, st.view, st.good, st.born = a, st.view[:0], true, t.round
		st.grp = t.newGroup(a)
		st.grp.refs = 1
		if !t.ob.first { // on the first, every record is new
			t.markNear(a)
		}
		t.affEpoch[slot] = 0
		t.markAffected(memberRef{id: a, slot: slot})
		t.ob.changedPartition = true
	}
}

// markTopoDirty lists in t.topoDirty, each once, the slots whose
// neighborhood may have changed: every member the source's changed-row
// record names (every member when the source cannot tell) and every added
// node. It counts them (registry obs_rows_swept) and keys the graph cache
// on the observed graph. Observe runs it only when the graph moved.
func (t *GroupTracker) markTopoDirty() {
	t.topoDirty = t.topoDirty[:0]
	switch {
	case t.ob.first: // every member is added
	case t.ob.allRows:
		for i := range t.nodes {
			t.markTopo(t.nodes[i].id) // a free slot's None is no member
		}
	default:
		for _, v := range t.ob.rows {
			t.markTopo(v)
		}
	}
	for _, v := range t.added {
		t.markTopo(v)
	}
	t.e.Introspect().Add(introspect.CtrObsRowsSwept, uint64(len(t.topoDirty)))
	t.prevG = t.ob.g
}

// refreshPiT restamps the previous partition's records that hold a
// topology-dirty member and re-evaluates their stretched verdicts against
// the new graph. A record whose members kept their adjacency keeps its
// cached verdict: its induced subgraph is unchanged. Observe samples ΠT
// from the verdicts after this, before the partition update; ΠS reads the
// same flag after it.
func (t *GroupTracker) refreshPiT() {
	t.evalList = t.evalList[:0]
	for _, slot := range t.topoDirty {
		grp := t.nodes[slot].grp
		t.restamp(grp)
		t.evalList = append(t.evalList, grp)
	}
	t.evalStretched()
}

// extractViews reads, shard-parallel, each shard's moved views and lists
// in the shard's changed records the nodes whose view content moved, each
// with its old view. A view that came back to the content last seen
// changes nothing; a node no longer tracked (removed after its view moved)
// is skipped. Records are bucketed by their node's shard, so no slot is
// touched by two workers.
func (t *GroupTracker) extractViews() {
	shard.Run(t.workers, func(s, w int) {
		sh := &t.shards[s]
		sh.changed = sh.changed[:0]
		for _, views := range t.ob.views {
			a := &views[s]
			for i := range a.Len() {
				v, view := a.At(i)
				slot := t.slotOf(v)
				if slot < 0 || slices.Equal(t.nodes[slot].view, view) {
					continue
				}
				st := &t.nodes[slot]
				sh.changed = append(sh.changed, changeRec{slot: slot, v: v, oldView: st.view})
				st.view, st.spare = append(st.spare[:0], view...), st.view
			}
		}
	})
}

// collectAffected completes t.affected from the changed views. Node w
// passes the check only if w ∈ view_w and every member's view equals
// view_w, so when v's view moves from old to new, a w that passed before
// with v in its view is a member of old, and a w that passes after is a
// member of new; a w that fails both keeps its Ω. The affected nodes are
// v and the tracked members of both views. It then drops refs whose node
// is gone (or whose slot was recycled — the new occupant marked itself on
// arrival) and sorts by ID, the canonical processing order; a reborn node
// can be marked under both its old and its new slot, so equal IDs are
// deduplicated too.
func (t *GroupTracker) collectAffected() {
	for s := range t.shards {
		for _, ch := range t.shards[s].changed {
			t.markAffected(memberRef{id: ch.v, slot: ch.slot})
			t.markView(ch.oldView)
			t.markView(t.nodes[ch.slot].view)
		}
	}
	t.affected = slices.DeleteFunc(t.affected, func(ref memberRef) bool { return t.nodes[ref.slot].id != ref.id })
	slices.SortFunc(t.affected, func(a, b memberRef) int { return cmp.Compare(a.id, b.id) })
	t.affected = slices.CompactFunc(t.affected, func(a, b memberRef) bool { return a.id == b.id })
}

// regroup runs the local agreement check for every affected node,
// slot-parallel: t.agree[i] holds when t.affected[i] is in its own view
// and every member of that view is tracked with an equal view. It is a
// pure read of the freshly extracted views compared exactly, so the
// verdict matches metrics.Snapshot.Omega bit for bit.
func (t *GroupTracker) regroup() {
	t.agree = slices.Grow(t.agree[:0], len(t.affected))[:len(t.affected)]
	shard.Slots(t.workers, len(t.affected), func(i, w int) {
		ref := t.affected[i]
		view := t.nodes[ref.slot].view
		_, good := slices.BinarySearch(view, ref.id)
		for j := 0; good && j < len(view); j++ {
			s := t.slotOf(view[j])
			good = s >= 0 && slices.Equal(t.nodes[s].view, view)
		}
		t.agree[i] = good
	})
}

// updatePartition moves each affected node, in canonical order, whose Ω
// changed — its view when its check held, {v} otherwise — to the
// representative's record when that holds exactly Ω, else to a new record
// queued in t.evalList for ΠS, and detaches it from the old one. It keeps
// the ΠA count, and past the first observation accounts ΠC and the
// membership churn for every move of a node not born this round, and for
// every reborn node: that looks new-born here, but the bracketing
// snapshots still compare its old Ω against its new one.
func (t *GroupTracker) updatePartition() {
	t.evalList = t.evalList[:0]
	for i, ref := range t.affected {
		st, good := &t.nodes[ref.slot], t.agree[i]
		if st.good != good {
			if good {
				t.badNodes--
			} else {
				t.badNodes++
			}
			st.good = good
		}
		self := [1]ident.NodeID{ref.id}
		omega := self[:]
		if good {
			omega = st.view
		}
		old := st.grp
		if slices.Equal(old.members, omega) {
			continue // Ω unchanged (only the agreement accounting moved)
		}
		target, _ := t.groups.Get(omega[0])
		if target == nil || !slices.Equal(target.members, omega) {
			target = t.newGroup(omega...)
			t.evalList = append(t.evalList, target)
		}
		target.refs++
		if !t.ob.first && st.born != t.round {
			t.countMove(old.members, target.members)
		}
		t.detach(old)
		st.grp = target
		t.markNear(ref.id)
		t.ob.changedPartition = true
	}
	if t.ob.first {
		return
	}
	for _, rb := range t.reborn {
		if s := t.slotOf(rb.v); s >= 0 && !slices.Equal(rb.old, t.nodes[s].grp.members) {
			t.countMove(rb.old, t.nodes[s].grp.members)
		}
	}
}

// countMove accounts one node's Ω moving from old to cur: a membership
// change, and a ΠC violation when cur lost a member of old.
func (t *GroupTracker) countMove(old, cur []ident.NodeID) {
	if !subsetSorted(old, cur) {
		t.ob.piCViolations++
	}
	t.ob.membership++
}

// evalStretched settles the stretched verdict (induced diameter > Dmax)
// against the observed graph for every record of t.evalList that is
// live, has more than one member and was not evaluated this round yet
// (slot-parallel, merged in list order). refreshPiT hands it the
// previous partition's topology-dirty records. After updatePartition it
// is ΠS for the records just created: every other live record was
// re-evaluated by refreshPiT or keeps a valid cached verdict.
func (t *GroupTracker) evalStretched() {
	list := t.evalList[:0]
	for _, grp := range t.evalList {
		if grp.refs > 0 && len(grp.members) > 1 && grp.evalRound != t.round {
			grp.evalRound = t.round
			list = append(list, grp)
		}
	}
	if len(list) == 0 {
		return
	}
	t.boolRes = slices.Grow(t.boolRes[:0], len(list))
	res := t.boolRes[:len(list)]
	shard.Slots(t.workers, len(list), func(i, w int) {
		res[i] = t.ws[w].stretched(t.ob.g, list[i].members, t.dmax)
	})
	for i, grp := range list {
		t.setStretched(grp, res[i])
	}
}

// record counts the observation in the source's registry and returns its
// statistics. The registry then carries the full picture (traffic,
// computes, wakes and observed violations) in one deterministic block; the
// soak drift check holds these counts to the fold of the streamed records.
// On the first observation ΠT and ΠC hold and count nothing.
func (t *GroupTracker) record() RoundStats {
	piT, piC := t.ob.piT, t.ob.piCViolations == 0
	reg := t.e.Introspect()
	reg.Inc(introspect.CtrObsRounds)
	if t.ob.first {
		piT, piC = true, true
	} else {
		if !piT {
			reg.Inc(introspect.CtrObsTopologyBreaks)
		}
		if !piC {
			reg.Inc(introspect.CtrObsContinuityBreaks)
			if piT {
				reg.Inc(introspect.CtrObsUnexcusedBreaks)
			}
		}
		reg.Add(introspect.CtrObsViolatingNodes, uint64(t.ob.piCViolations))
	}

	msgs, delivs := t.e.TrafficTotals()
	stats := RoundStats{
		Round:                t.round,
		Tick:                 t.e.Tick(),
		Nodes:                t.memberSum,
		Edges:                t.ob.g.NumEdges(),
		Groups:               t.groupCount,
		Singletons:           t.singletonCnt,
		Agreement:            t.badNodes == 0,
		Safety:               t.stretchedCnt == 0,
		Maximality:           t.mergeCnt == 0,
		SafeGroups:           t.groupCount - t.stretchedCnt,
		SafetyRate:           1,
		Topological:          piT,
		Continuity:           piC,
		ContinuityViolations: t.ob.piCViolations,
		MembershipChanges:    t.ob.membership,
		ExternalEdges:        t.nee,
		MessagesSent:         msgs,
		Deliveries:           delivs,
	}
	// Served from the registry (the engine samples radio.DropCounter
	// deltas each arbitrate phase), so the record and the flight snapshot
	// can never disagree on the drop count.
	stats.RadioDrops = int(reg.Get(introspect.CtrRadioDrops))
	if t.groupCount > 0 {
		stats.MeanSize = float64(t.memberSum) / float64(t.groupCount)
		stats.SafetyRate = float64(stats.SafeGroups) / float64(t.groupCount)
	}
	stats.Converged = stats.Agreement && stats.Safety && stats.Maximality
	return stats
}

// scanPairs recounts the external edges and settles ΠM over the
// adjacent-group pairs, each owned by its lower-representative group, and
// that group by its representative's shard: shard s takes the records of
// t.reps[s]. A group whose stamp predates the last scan and no neighbor of
// whose members changed record since (nearRnd) has the same edges and
// upper groups as then: its upper groups are read off its run and its edge
// count is kept. Any other group walks its rows. A neighbor u ≤ rep is rep
// or lies in a lower group (the representative is its group's least
// member), so it is skipped unlooked; an edge into a group b above it
// counts, and b is kept, once, in the ascending list nbrs. A pair's
// verdict in the group's run (kept only while the group keeps its stamp)
// is reused while b holds the stamp it was settled under; a live record
// keeps its rep, so those come in nbrs' order. Else two unstretched groups
// of at most Dmax+1 members in all are mergeable (a connected graph on m
// nodes has diameter ≤ m−1); else the BFS runs inline. Counts fold in
// shard order.
func (t *GroupTracker) scanPairs(g *graph.G) {
	reg := t.e.Introspect()
	shard.Run(t.workers, func(s, w int) {
		sh, ws := &t.shards[s], t.ws[w]
		// Room for a growing pair count. The spare is stale, so a regrown
		// one copies nothing, and its capacity is exact: when it regrows
		// depends on the counts, not on the allocator's size classes.
		next := sh.spare[:0]
		if want := len(sh.verdicts) + len(sh.verdicts)/2; cap(next) < want {
			next = make([]pairVerdict, 0, max(want, 2*cap(next)))
		}
		sh.nee, sh.merges = 0, 0
		reused, bfs := 0, 0
		for _, a := range t.reps[s] {
			old := sh.verdicts[a.upAt : a.upAt+a.upN]
			ws.nbrs = ws.nbrs[:0]
			if a.topoGen <= t.scanned && a.nearRnd != t.round { // clean
				for _, v := range old {
					ws.nbrs = append(ws.nbrs, v.b)
				}
			} else {
				a.upEdges = 0
				for _, x := range a.members {
					for _, u := range g.NeighborsView(x) {
						if u <= a.rep {
							continue
						}
						b := t.nodes[t.ro.SlotOf(u)].grp
						if b.rep <= a.rep {
							continue // a itself, or a lower group, whose scan counts the edge
						}
						a.upEdges++
						i, found := slices.BinarySearchFunc(ws.nbrs, b.rep, func(x *group, rep ident.NodeID) int { return cmp.Compare(x.rep, rep) })
						if !found {
							ws.nbrs = slices.Insert(ws.nbrs, i, b)
						}
					}
				}
			}
			sh.nee += a.upEdges
			a.upAt, a.upN = int32(len(next)), int32(len(ws.nbrs))
			for _, b := range ws.nbrs {
				v := pairVerdict{b: b, tb: b.topoGen}
				switch i := slices.IndexFunc(old, func(o pairVerdict) bool { return o.b == b && o.tb == v.tb }); {
				case i >= 0:
					v.mergeable = old[i].mergeable
					old = old[i+1:]
					reused++
				case !a.stretched && !b.stretched && len(a.members)+len(b.members) <= t.dmax+1:
					v.mergeable = true
				default:
					v.mergeable = ws.mergeable(g, a.members, b.members, t.dmax)
					bfs++
				}
				if v.mergeable {
					sh.merges++
				}
				next = append(next, v)
			}
		}
		sh.verdicts, sh.spare = next, sh.verdicts
		reg.Shard(s).Add(introspect.CtrObsPairsReused, uint64(reused))
		reg.Shard(s).Add(introspect.CtrObsPairsBFS, uint64(bfs))
	})
	t.scanned = t.stamp
	t.nee, t.mergeCnt = 0, 0
	for s := range t.shards {
		t.nee += t.shards[s].nee
		t.mergeCnt += t.shards[s].merges
	}
}

// restamp gives grp a stamp no record has held — stamps are handed out in
// sequential phases only — so no cached ΠM verdict names it, and empties
// its run: the verdicts it owns were settled under its old stamp.
func (t *GroupTracker) restamp(grp *group) {
	t.stamp++
	grp.topoGen = t.stamp
	grp.upAt, grp.upN = 0, 0
}

// newGroup creates a record holding a copy of members, ascending — in a
// free record when there is one — stamps it, registers it as the
// representative's (members[0]'s) canonical record, lists it in the
// representative's shard and accounts it.
func (t *GroupTracker) newGroup(members ...ident.NodeID) *group {
	var grp *group
	if n := len(t.free); n == 0 {
		grp = &group{}
	} else {
		grp, t.free = t.free[n-1], t.free[:n-1]
		grp.refs, grp.evalRound, grp.stretched = 0, 0, false
	}
	t.restamp(grp)
	grp.rep, grp.members = members[0], append(grp.members[:0], members...)
	t.groups.Set(grp.rep, grp)
	s := shard.Of(grp.rep)
	grp.at = int32(len(t.reps[s]))
	t.reps[s] = append(t.reps[s], grp)
	t.groupCount++
	t.memberSum += len(members)
	if len(members) == 1 {
		t.singletonCnt++
	}
	return grp
}

// detach drops one reference and destroys the record when it was the
// last: it leaves its shard's list, the last record there taking its
// place, and is parked for the rest of this Observe (the canonical map
// entry is removed only if it still points at this record — a replacement
// may already have taken the slot).
func (t *GroupTracker) detach(grp *group) {
	grp.refs--
	if grp.refs > 0 {
		return
	}
	t.groupCount--
	t.memberSum -= len(grp.members)
	if len(grp.members) == 1 {
		t.singletonCnt--
	}
	t.setStretched(grp, false)
	reps := t.reps[shard.Of(grp.rep)]
	last := reps[len(reps)-1]
	reps[grp.at], last.at = last, grp.at
	t.reps[shard.Of(grp.rep)] = reps[:len(reps)-1]
	if cur, _ := t.groups.Get(grp.rep); cur == grp {
		t.groups.Delete(grp.rep)
	}
	t.parked = append(t.parked, grp)
}

func (t *GroupTracker) setStretched(grp *group, v bool) {
	if grp.stretched == v {
		return
	}
	grp.stretched = v
	if v {
		t.stretchedCnt++
	} else {
		t.stretchedCnt--
	}
}

// markTopo queues v's slot in the topology-dirty list, once a
// round, if v is a tracked member.
func (t *GroupTracker) markTopo(v ident.NodeID) {
	if s := t.slotOf(v); s >= 0 && t.nodes[s].topoRnd != t.round {
		t.nodes[s].topoRnd = t.round
		t.topoDirty = append(t.topoDirty, s)
	}
}

// markNear flags the records of v's neighbors, v having changed record:
// a group above theirs may have come or gone with it.
func (t *GroupTracker) markNear(v ident.NodeID) {
	for _, u := range t.ob.g.NeighborsView(v) {
		if s := t.slotOf(u); s >= 0 {
			t.nodes[s].grp.nearRnd = t.round
		}
	}
}

// markView marks every tracked member of view as affected.
func (t *GroupTracker) markView(view []ident.NodeID) {
	for _, u := range view {
		if s := t.slotOf(u); s >= 0 {
			t.markAffected(memberRef{id: u, slot: s})
		}
	}
}

// markAffected stamps ref's slot for this round and queues it. Refs can
// go stale across in-window churn; collectAffected re-validates
// every queued ref against the slot's current occupant.
func (t *GroupTracker) markAffected(ref memberRef) {
	if t.affEpoch[ref.slot] == t.round {
		return
	}
	t.affEpoch[ref.slot] = t.round
	t.affected = append(t.affected, ref)
}

// Groups materializes the current partition, each group ascending, the
// list sorted by representative — the same shape as
// metrics.Snapshot.Groups, for tests and debug output.
func (t *GroupTracker) Groups() [][]ident.NodeID {
	out := make([][]ident.NodeID, 0, t.groupCount)
	for _, grp := range t.groups.All() {
		out = append(out, slices.Clone(grp.members))
	}
	slices.SortFunc(out, func(a, b []ident.NodeID) int { return cmp.Compare(a[0], b[0]) })
	return out
}

// --- small sorted-slice helpers ---

// subsetSorted reports a ⊆ b for ascending slices.
func subsetSorted(a, b []ident.NodeID) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}
