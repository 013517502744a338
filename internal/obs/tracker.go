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
// epoch stamps and the shard worklists index flat arrays by slot, and the
// dirty report feeds slots straight through, so the steady-state round
// touches no per-node map at all. ID-keyed lookups survive only where an
// ID may legitimately not be a member: view contents (a view can retain a
// departed node or name a fabricated one), resolved through the roster's
// slot table, and the group index keyed by representative.
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
	viewVer uint64         // core.Node.ViewVersion at last extraction
	view    []ident.NodeID // the node's own view, ascending
	spare   []ident.NodeID // view's other buffer: the two swap on a change
	grp     *group         // current Ω record
	born    int            // round the state was created (suppresses ΠC on arrival)
	topoRnd int            // round v was last marked topology-dirty
}

// memberRef pairs a live node's identity with its engine slot: the shape
// the shard worklists and the affected set carry, so downstream phases
// index the slot array directly while every canonical-order decision
// still compares IDs. A ref is valid while nodes[slot].id == id; holders
// that can outlive the referent (the affected set, across in-window
// churn) re-validate before use.
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
	members []ident.NodeID // ascending; len ≥ 1; the record's own copy
	refs    int            // nodes currently assigned to this record

	stretched bool // induced diameter > dmax in the last evaluated graph
	evalRound int  // round of that evaluation (dedup stamp)
	// topoGen is a stamp unique tracker-wide (restamp), taken on creation,
	// fresh or reused, and when a member's neighborhood changes or it
	// departs, so a ΠM verdict is proved by its two records' stamps alone.
	topoGen uint64
	nearRnd int // round a member's neighbor last changed record
	upEdges int // edges to the groups above it, counted at its last rescan
}

type pairKey struct{ a, b ident.NodeID } // a < b, group representatives

// pairVerdict is a pair's ΠM verdict, valid while both records hold the
// stamps it was settled under; pointer-free, so the GC never scans it.
type pairVerdict struct {
	k         pairKey
	ta, tb    uint64 // topoGen of the records on each side at evaluation
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

	nodes    []nodeState          // engine slot → cache (id validates)
	affEpoch []int                // engine slot → round last marked affected
	groups   ident.Table[*group]  // representative → current record
	parked   []*group             // destroyed this Observe: still read (ΠC, reborn, ΠS)
	free     []*group             // destroyed before it: poisoned, newGroup's to write
	byShard  [shard.N][]memberRef // live nodes, ascending per shard

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
	shards    [shard.N]trackerShard
	ws        []*workerScratch
	affected  []memberRef
	topoDirty []int32 // slots whose neighborhood changed
	added     []ident.NodeID
	removed   []engine.RemovedNode
	reborn    []rebornRec
	evalList  []*group
	boolRes   []bool
	regroup   []regroupRes
}

// trackerShard is one shard's parallel-phase output buffers.
type trackerShard struct {
	changed  []changeRec
	extract  []int32 // extraction-candidate slots (computed ∪ added)
	vbuf     []ident.NodeID
	verdicts []pairVerdict // the pairs of the groups represented here, by key
	spare    []pairVerdict // verdicts' other buffer: the two swap every scan
	nee      int           // boundary edges counted by those groups
	merges   int           // mergeable pairs among verdicts
}

type changeRec struct {
	slot    int32
	v       ident.NodeID
	oldView []ident.NodeID // the slot's spare: valid until its next extraction, read by phase 5
}

// rebornRec remembers the previous Ω of a node that was removed and
// re-added within one observation window: the bracketing-snapshot
// semantics of ΠC still compare its old group against its new one.
type rebornRec struct {
	v   ident.NodeID
	old []ident.NodeID
}

type regroupRes struct {
	good bool
	rep  ident.NodeID
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
	src.TrackDirty()
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

// state resolves a live node's cache by ID, or nil when v is not a
// member. Used only where the ID may legitimately be dead (view
// contents); slot-carrying paths index t.nodes directly.
func (t *GroupTracker) state(v ident.NodeID) *nodeState {
	s := t.ro.SlotOf(v)
	if s < 0 {
		return nil
	}
	st := &t.nodes[s]
	if st.id != v {
		return nil
	}
	return st
}

// Observe processes everything that happened since the previous call
// (any number of engine ticks) and returns the statistics of the current
// configuration. The transition predicates (ΠT, ΠC) compare against the
// previously observed configuration, exactly like feeding the two
// bracketing engine.Snapshots to metrics.Topological/ContinuityViolations.
func (t *GroupTracker) Observe() RoundStats {
	t.round++
	first := !t.synced

	// Phase 0: size the slot-indexed arrays to the engine's slot table
	// and drain the dirty report. On the first observation the report is
	// discarded and every live node is treated as added.
	if c := t.ro.SlotCap(); len(t.nodes) < c {
		t.nodes = append(t.nodes, make([]nodeState, c-len(t.nodes))...)
		t.affEpoch = append(t.affEpoch, make([]int, c-len(t.affEpoch))...)
	}
	t.added = t.added[:0]
	t.removed = t.removed[:0]
	for s := range t.shards {
		t.shards[s].extract = t.shards[s].extract[:0]
	}
	// Last Observe's dead records become writable, poisoned so that a
	// stale alias reads no plausible group.
	for _, grp := range t.parked {
		clear(grp.members)
		grp.rep = ident.None
	}
	t.free, t.parked = append(t.free, t.parked...), t.parked[:0]
	t.e.DrainDirty(func(computed [shard.N][]int32, added []ident.NodeID, removed []engine.RemovedNode) {
		if first {
			return
		}
		for s := range computed {
			t.shards[s].extract = append(t.shards[s].extract, computed[s]...)
		}
		t.added = append(t.added, added...)
		t.removed = append(t.removed, removed...)
	})
	if first {
		t.added = append(t.added, t.ro.IDs()...)
		t.synced = true
		t.firstSync(len(t.added))
	}
	rows, allRows := t.e.DrainRows()

	g := t.e.LiveGraph()
	topoChanged := first || g != t.prevG
	changedPartition := false
	piTBroken := false

	t.affected = t.affected[:0]

	// Phase 1 (sequential): membership. Removals first — a node that was
	// removed and re-added inside the window is a state reset (drop the
	// cache, let the addition path recreate it, possibly on a different
	// slot).
	t.reborn = t.reborn[:0]
	for _, r := range t.removed {
		if int(r.Slot) >= len(t.nodes) {
			continue
		}
		st := &t.nodes[r.Slot]
		if st.id != r.ID {
			continue // never tracked, or the slot was never synced
		}
		if t.ro.SlotOf(r.ID) >= 0 {
			t.added = append(t.added, r.ID)
			t.reborn = append(t.reborn, rebornRec{v: r.ID, old: st.grp.members})
		} else if len(st.grp.members) > 1 {
			// A member departing from a non-singleton group breaks ΠT
			// outright: its distance to the others is infinite in the new
			// topology. (The record itself dissolves this round — every
			// surviving member re-groups away from it below.)
			piTBroken = true
			t.restamp(st.grp)
		}
		// A node whose check held with r.ID in its view shared r.ID's
		// last view, so it is a member of it.
		t.markView(st.view)
		if !st.good {
			t.badNodes--
		}
		t.detach(st.grp)
		st.id = ident.None
		st.grp = nil
		st.view = st.view[:0]
		t.shardRemove(r.ID)
		changedPartition = true
	}
	for _, a := range t.added {
		slot := t.ro.SlotOf(a)
		if slot < 0 {
			continue // added and removed again within the window
		}
		st := &t.nodes[slot]
		if st.id == a {
			continue // duplicate report
		}
		// A fresh node starts as a good singleton (its initial view is
		// {a}); the extraction below confirms or corrects that. The slot
		// may be recycled within the window: reset the epoch stamp so an
		// earlier mark against the previous occupant cannot suppress this
		// node's regroup.
		st.id = a
		st.viewVer = 0
		st.view = st.view[:0]
		st.good = true
		st.born = t.round
		st.grp = t.newGroup(a, a)
		st.grp.refs = 1
		if !first { // on the first, every record is new
			t.markNear(g, a)
		}
		t.affEpoch[slot] = 0
		ref := memberRef{id: a, slot: slot}
		t.shardInsert(ref)
		t.shards[shard.Of(a)].extract = append(t.shards[shard.Of(a)].extract, slot)
		t.markAffected(ref)
		changedPartition = true
	}

	// Phase 2: the topology-dirty set — every node of the source's
	// changed-row record and every added node, each once (all of them when
	// the source cannot tell).
	if topoChanged {
		t.topoDirty = t.topoDirty[:0]
		switch {
		case first: // every member is added
		case allRows:
			for s := range t.byShard {
				for _, m := range t.byShard[s] {
					t.markTopo(m.id)
				}
			}
		default:
			for _, v := range rows {
				t.markTopo(v)
			}
		}
		for _, v := range t.added {
			t.markTopo(v)
		}
		t.e.Introspect().Add(introspect.CtrObsRowsSwept, uint64(len(t.topoDirty)))
		t.prevG = g
	}

	// Phase 3: ΠT refresh — re-evaluate the *previous* partition's
	// topology-dirty groups against the new graph (a group whose members
	// kept their adjacency keeps its cached verdict: its induced subgraph
	// is unchanged). ΠT is sampled before the partition update, ΠS after
	// it; both read the same per-record stretched flag.
	if topoChanged {
		t.evalList = t.evalList[:0]
		for _, slot := range t.topoDirty {
			grp := t.nodes[slot].grp
			t.restamp(grp)
			if grp.evalRound != t.round && len(grp.members) > 1 {
				grp.evalRound = t.round
				t.evalList = append(t.evalList, grp)
			}
		}
		t.evalStretched(g, t.evalList)
	}
	piT := !piTBroken && t.stretchedCnt == 0

	// Phase 4 (parallel): view extraction for the computed/added slots.
	// At steady state a node whose view did not change costs one counter
	// comparison (core.Node.ViewVersion); content is re-extracted and
	// diffed only on an actual change. A slot freed (or recycled across
	// shards) after its node computed is skipped: the shard guard keeps
	// a recycled slot's extraction inside the new occupant's own shard,
	// so no slot is ever touched by two workers.
	shard.Run(t.workers, func(s, w int) {
		sh := &t.shards[s]
		sh.changed = sh.changed[:0]
		for _, slot := range sh.extract {
			st := &t.nodes[slot]
			if st.id == ident.None || shard.Of(st.id) != s {
				continue // removed after computing, or recycled cross-shard
			}
			n := t.e.ViewerAtSlot(slot)
			if n == nil {
				continue
			}
			ver := n.ViewVersion()
			if st.viewVer == ver {
				continue
			}
			st.viewVer = ver
			sh.vbuf = n.AppendView(sh.vbuf[:0])
			if slices.Equal(st.view, sh.vbuf) {
				continue
			}
			nv := append(st.spare[:0], sh.vbuf...)
			sh.changed = append(sh.changed, changeRec{slot: slot, v: st.id, oldView: st.view})
			st.view, st.spare = nv, st.view
		}
	})

	// Phase 5 (sequential): the affected set. Node w passes the check
	// only if w ∈ view_w and every member's view equals view_w, so when
	// v's view moves from old to new, a w that passed before with v in its
	// view is a member of old, and a w that passes after is a member of
	// new; a w that fails both keeps its Ω. The affected nodes are v and
	// the tracked members of both views.
	for s := range t.shards {
		for _, ch := range t.shards[s].changed {
			t.markAffected(memberRef{id: ch.v, slot: ch.slot})
			t.markView(ch.oldView)
			t.markView(t.nodes[ch.slot].view)
		}
	}
	// Finalize the affected set: drop refs whose node is gone (or whose
	// slot was recycled — the new occupant marked itself on arrival) and
	// sort by ID to restore the canonical processing order; a reborn node
	// can be marked under both its old and its new slot, so equal IDs are
	// deduplicated too.
	t.affected = slices.DeleteFunc(t.affected, func(ref memberRef) bool { return t.nodes[ref.slot].id != ref.id })
	slices.SortFunc(t.affected, func(a, b memberRef) int { return cmp.Compare(a.id, b.id) })
	t.affected = slices.CompactFunc(t.affected, func(a, b memberRef) bool { return a.id == b.id })

	// Phase 6 (parallel): regroup — the local agreement check for every
	// affected node, a pure read of the freshly extracted views compared
	// exactly, so the verdict matches metrics.Snapshot.Omega bit for bit.
	t.regroup = slices.Grow(t.regroup[:0], len(t.affected))[:len(t.affected)]
	shard.Slots(t.workers, len(t.affected), func(i, w int) {
		ref := t.affected[i]
		st := &t.nodes[ref.slot]
		_, good := slices.BinarySearch(st.view, ref.id)
		if good {
			for _, u := range st.view {
				su := t.state(u)
				if su == nil || !slices.Equal(su.view, st.view) {
					good = false
					break
				}
			}
		}
		rep := ref.id
		if good {
			rep = st.view[0]
		}
		t.regroup[i] = regroupRes{good: good, rep: rep}
	})

	// Phase 7 (sequential, canonical order): partition update — detach
	// from stale records, attach to (or create) the new ones, account ΠC
	// and the membership churn.
	t.evalList = t.evalList[:0]
	piCViolations := 0
	membership := 0
	for i, ref := range t.affected {
		v := ref.id
		st := &t.nodes[ref.slot]
		res := t.regroup[i]
		old := st.grp
		same := false
		if res.good {
			same = slices.Equal(old.members, st.view)
		} else {
			same = len(old.members) == 1 && old.members[0] == v
		}
		if st.good != res.good {
			if res.good {
				t.badNodes--
			} else {
				t.badNodes++
			}
			st.good = res.good
		}
		if same {
			continue // Ω unchanged (only the agreement accounting moved)
		}
		var target *group
		if res.good {
			target, _ = t.groups.Get(res.rep)
			if target == nil || !slices.Equal(target.members, st.view) {
				target = t.newGroup(res.rep, st.view...)
				if len(st.view) > 1 {
					t.evalList = append(t.evalList, target)
				}
			}
		} else {
			target, _ = t.groups.Get(v)
			if target == nil || len(target.members) != 1 || target.members[0] != v {
				target = t.newGroup(v, v)
			}
		}
		target.refs++
		if !first && st.born != t.round {
			if !subsetSorted(old.members, target.members) {
				piCViolations++
			}
			membership++
		}
		t.detach(old)
		st.grp = target
		t.markNear(g, v)
		changedPartition = true
	}
	// Nodes removed and re-added within the window look new-born to the
	// partition update, but the bracketing-snapshot semantics still
	// compare their old Ω against the new one.
	if !first {
		for _, rb := range t.reborn {
			st := t.state(rb.v)
			if st == nil || slices.Equal(rb.old, st.grp.members) {
				continue
			}
			if !subsetSorted(rb.old, st.grp.members) {
				piCViolations++
			}
			membership++
		}
	}

	// Phase 8 (parallel): ΠS for the records created this round. Records
	// that survived the partition update were either re-evaluated in
	// phase 3 (topology-dirty) or keep a valid cached verdict.
	fresh := t.evalList[:0]
	for _, grp := range t.evalList {
		if grp.refs > 0 && grp.evalRound != t.round {
			grp.evalRound = t.round
			fresh = append(fresh, grp)
		}
	}
	t.evalStretched(g, fresh)

	// Phase 9 (parallel): external edges and ΠM over adjacent group
	// pairs. Ω sets are disjoint, so two groups can merge only if an
	// edge joins them — the candidate pairs are exactly the
	// group-boundary edges, and the counts are reused verbatim when
	// neither the topology nor the partition moved.
	if topoChanged || changedPartition {
		t.scanPairs(g)
	}

	piC := piCViolations == 0
	if first {
		piT, piC = true, true
	}

	// Count the observation in the engine's flight recorder, so a registry
	// snapshot carries the full picture (traffic, computes, wakes AND
	// observed violations) in one deterministic block; the soak drift
	// check holds these counts to the fold of the streamed records.
	reg := t.e.Introspect()
	reg.Inc(introspect.CtrObsRounds)
	if !first {
		if !piT {
			reg.Inc(introspect.CtrObsTopologyBreaks)
		}
		if !piC {
			reg.Inc(introspect.CtrObsContinuityBreaks)
			if piT {
				reg.Inc(introspect.CtrObsUnexcusedBreaks)
			}
		}
		reg.Add(introspect.CtrObsViolatingNodes, uint64(piCViolations))
	}

	msgs, delivs := t.e.TrafficTotals()
	stats := RoundStats{
		Round:                t.round,
		Tick:                 t.e.Tick(),
		Nodes:                t.memberSum,
		Edges:                g.NumEdges(),
		Groups:               t.groupCount,
		Singletons:           t.singletonCnt,
		Agreement:            t.badNodes == 0,
		Safety:               t.stretchedCnt == 0,
		Maximality:           t.mergeCnt == 0,
		SafeGroups:           t.groupCount - t.stretchedCnt,
		SafetyRate:           1,
		Topological:          piT,
		Continuity:           piC,
		ContinuityViolations: piCViolations,
		MembershipChanges:    membership,
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

// evalStretched evaluates the induced-diameter verdict for every group
// in list against g (slot-parallel, merged in list order).
func (t *GroupTracker) evalStretched(g *graph.G, list []*group) {
	if len(list) == 0 {
		return
	}
	t.boolRes = slices.Grow(t.boolRes[:0], len(list))
	res := t.boolRes[:len(list)]
	shard.Slots(t.workers, len(list), func(i, w int) {
		res[i] = t.ws[w].stretched(g, list[i].members, t.dmax)
	})
	for i, grp := range list {
		t.setStretched(grp, res[i])
	}
}

// scanPairs recounts the external edges and settles ΠM over the
// adjacent-group pairs, each owned by its lower-representative group, and
// that group by its representative's shard. Shard s takes, in ascending
// order, every node of its own that represents its group. A group whose
// stamp predates the last scan and no neighbor of whose members changed
// record since (nearRnd) has the same edges and upper groups as then: its
// upper groups are read off its verdicts and its edge count is kept. Any
// other group walks its rows. A neighbor u ≤ rep is rep or lies in a lower
// group (the representative is its group's least member), so it is
// skipped unlooked; an edge into a group b above it counts, and b is kept,
// once, in the ascending list nbrs. Pairs thus come out in key order, and
// each is merge-joined against the shard's verdicts of the last scan: one
// is reused while both records hold the stamps it was settled under; else
// two unstretched groups of at most Dmax+1 members in all are mergeable
// (a connected graph on m nodes has diameter ≤ m−1); else the BFS runs
// inline. Counts fold in shard order.
func (t *GroupTracker) scanPairs(g *graph.G) {
	reg := t.e.Introspect()
	shard.Run(t.workers, func(s, w int) {
		sh, ws := &t.shards[s], t.ws[w]
		old := sh.verdicts
		next := slices.Grow(sh.spare[:0], len(old)+len(old)/4) // room for a growing pair count
		sh.nee, sh.merges = 0, 0
		reused, bfs := 0, 0
		for _, m := range t.byShard[s] {
			a := t.nodes[m.slot].grp
			if a.rep != m.id {
				continue
			}
			for len(old) > 0 && old[0].k.a < a.rep {
				old = old[1:]
			}
			ws.nbrs = ws.nbrs[:0]
			if a.topoGen <= t.scanned && a.nearRnd != t.round { // clean
				for i := 0; i < len(old) && old[i].k.a == a.rep; i++ {
					b, _ := t.groups.Get(old[i].k.b)
					ws.nbrs = append(ws.nbrs, b)
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
			for _, b := range ws.nbrs {
				v := pairVerdict{k: pairKey{a: a.rep, b: b.rep}, ta: a.topoGen, tb: b.topoGen}
				for len(old) > 0 && old[0].k.a == a.rep && old[0].k.b < b.rep {
					old = old[1:]
				}
				switch {
				case len(old) > 0 && old[0].k == v.k && old[0].ta == v.ta && old[0].tb == v.tb:
					v.mergeable = old[0].mergeable
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
// sequential phases only — so no cached ΠM verdict names it.
func (t *GroupTracker) restamp(grp *group) {
	t.stamp++
	grp.topoGen = t.stamp
}

// newGroup creates a record holding a copy of members — in a free record
// when there is one — stamps it, registers it as the representative's
// canonical record and accounts it.
func (t *GroupTracker) newGroup(rep ident.NodeID, members ...ident.NodeID) *group {
	var grp *group
	if n := len(t.free); n == 0 {
		grp = &group{}
	} else {
		grp, t.free = t.free[n-1], t.free[:n-1]
		grp.refs, grp.evalRound, grp.stretched = 0, 0, false
	}
	t.restamp(grp)
	grp.rep, grp.members = rep, append(grp.members[:0], members...)
	t.groups.Set(rep, grp)
	t.groupCount++
	t.memberSum += len(members)
	if len(members) == 1 {
		t.singletonCnt++
	}
	return grp
}

// detach drops one reference and destroys the record when it was the
// last, parking it for the rest of this Observe (the canonical map entry
// is removed only if it still points at this record — a replacement may
// already have taken the slot).
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
	slot := t.ro.SlotOf(v)
	if slot < 0 || t.nodes[slot].id != v || t.nodes[slot].topoRnd == t.round {
		return
	}
	t.nodes[slot].topoRnd = t.round
	t.topoDirty = append(t.topoDirty, slot)
}

// markNear flags the records of v's neighbors, v having changed record:
// a group above theirs may have come or gone with it.
func (t *GroupTracker) markNear(g *graph.G, v ident.NodeID) {
	for _, u := range g.NeighborsView(v) {
		if st := t.state(u); st != nil {
			st.grp.nearRnd = t.round
		}
	}
}

// markView marks every tracked member of view as affected. A view can
// name a departed or fabricated ID: that is a lookup miss, nothing more.
func (t *GroupTracker) markView(view []ident.NodeID) {
	for _, u := range view {
		if slot := t.ro.SlotOf(u); slot >= 0 && t.nodes[slot].id == u {
			t.markAffected(memberRef{id: u, slot: slot})
		}
	}
}

// markAffected stamps ref's slot for this round and queues it. Refs can
// go stale across in-window churn; the finalization step re-validates
// every queued ref against the slot's current occupant.
func (t *GroupTracker) markAffected(ref memberRef) {
	if t.affEpoch[ref.slot] == t.round {
		return
	}
	t.affEpoch[ref.slot] = t.round
	t.affected = append(t.affected, ref)
}

func (t *GroupTracker) shardInsert(ref memberRef) {
	s := shard.Of(ref.id)
	i, _ := slices.BinarySearchFunc(t.byShard[s], ref.id, byID)
	t.byShard[s] = slices.Insert(t.byShard[s], i, ref)
}

func (t *GroupTracker) shardRemove(v ident.NodeID) {
	s := shard.Of(v)
	if i, ok := slices.BinarySearchFunc(t.byShard[s], v, byID); ok {
		t.byShard[s] = slices.Delete(t.byShard[s], i, i+1)
	}
}

func byID(m memberRef, id ident.NodeID) int { return cmp.Compare(m.id, id) }

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
