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
// group work plus one O(n·k̄) neighborhood sweep (only when the topology
// moved), instead of the oracle's O(n·k̄²) full re-derivation with a map
// and a canonical string per node.
//
// Per-node bookkeeping is slot-indexed, mirroring the engine's roster
// slots (engine.Engine.SlotOf): the per-node cache, the affected-set
// epoch stamps and the shard worklists index flat arrays by slot, and the
// dirty report feeds slots straight through, so the steady-state round
// touches no per-node map at all. ID-keyed lookups survive only where an
// ID may legitimately not be a member: view contents (a view can retain a
// departed node) and the watcher/group indexes keyed by them.
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
	"sort"

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
	id       ident.NodeID
	viewVer  uint64         // core.Node.ViewVersion at last extraction
	view     []ident.NodeID // the node's own view, ascending
	spare    []ident.NodeID // view's other buffer: the two swap on a change
	viewHash uint64         // commutative hash of view
	selfIn   bool           // v ∈ view_v
	nbrs     []ident.NodeID // neighborhood in the restricted graph, ascending
	nbrSlots []int32        // engine slot per nbrs entry (same index)
	grp      *group         // current Ω record
	good     bool           // local agreement check holds (Ω = view)
	born     int            // round the state was created (suppresses ΠC on arrival)
}

// memberRef pairs a live node's identity with its engine slot: the shape
// the shard worklists, watcher sets and the affected set carry, so
// downstream phases index the slot array directly while every
// canonical-order decision still compares IDs. A ref is valid while
// nodes[slot].id == id; holders that can outlive the referent (the
// affected set, across in-window churn) re-validate before use.
type memberRef struct {
	id   ident.NodeID
	slot int32
}

// group is one Ω record. Its membership is immutable while it is live:
// any partition change produces another record, so records are shared by
// their members and compared by pointer. A record owns its members'
// storage and is written again one Observe after detach destroyed it, so
// the ΠM pair cache keys verdicts on (pointer, topoGen), and topoGen only
// ever grows.
type group struct {
	rep     ident.NodeID   // minimum member — the unique representative
	members []ident.NodeID // ascending; len ≥ 1; the record's own copy
	refs    int            // nodes currently assigned to this record

	stretched bool   // induced diameter > dmax in the last evaluated graph
	evalRound int    // round of that evaluation (dedup stamp)
	topoGen   uint64 // bumped when a member's neighborhood changes, and on reuse
}

type pairKey struct{ a, b ident.NodeID } // a < b, group representatives

type pairEntry struct {
	k      pairKey
	ga, gb *group // the records on each side of the boundary edge
}

type pairVerdict struct {
	ga, gb    *group // records the verdict was computed for
	ta, tb    uint64 // their topoGen at evaluation time
	mergeable bool
}

// GroupTracker incrementally observes one engine run (or, through a
// distributed Source, one logical run spread over several engines).
type GroupTracker struct {
	e       Source
	dmax    int
	workers int

	round  int
	synced bool

	nodes    []nodeState                  // engine slot → cache (id validates)
	affEpoch []int                        // engine slot → round last marked affected
	watchers map[ident.NodeID][]memberRef // u → {w : u ∈ view_w}, ascending by watcher
	groups   map[ident.NodeID]*group      // representative → current record
	parked   []*group                     // destroyed this Observe: still read (ΠC, reborn, pending)
	free     []*group                     // destroyed before it: poisoned, newGroup's to write
	byShard  [shard.N][]memberRef         // live nodes, ascending per shard

	// Aggregates over the live partition, maintained on every record
	// create/destroy and verdict flip — never recomputed by scanning.
	badNodes     int // nodes failing the local agreement check (ΠA ⇔ 0)
	groupCount   int
	singletonCnt int
	memberSum    int // Σ|members| over records (= live node count at rest)
	stretchedCnt int // records with induced diameter > dmax (ΠS ⇔ 0)

	// Graph cache key (pointer for identity only) and topology-derived stats.
	prevG   *graph.G
	prevGen uint64
	edges   int

	// ΠM / nee state: adjacent-group pairs and the verdict cache
	// (value maps: no allocation per refreshed verdict).
	pairCache map[pairKey]pairVerdict
	pairSpare map[pairKey]pairVerdict
	nee       int
	mergeCnt  int

	// Cumulative soak counters (transitions observed so far).
	Rounds           int
	ContinuityBreaks int // observations with ΠC false
	TopologyBreaks   int // observations with ΠT false
	UnexcusedBreaks  int // ΠC false while ΠT held (contract violations)
	ViolatingNodes   int // total nodes that lost a group member
	TotalMembership  int // total Ω changes across nodes

	// Scratch (coordinator-owned).
	shards   [shard.N]trackerShard
	ws       []*workerScratch
	affected []memberRef
	added    []ident.NodeID
	removed  []engine.RemovedNode
	reborn   []rebornRec
	evalList []*group
	pending  []pairEntry
	pairList []pairKey
	boolRes  []bool
	regroup  []regroupRes
}

// trackerShard is one shard's parallel-phase output buffers.
type trackerShard struct {
	topoDirty []int32 // slots whose neighborhood changed
	changed   []changeRec
	degSum    int
	nee       int
	pairs     []pairEntry
	extract   []int32 // extraction-candidate slots (computed ∪ added)
	vbuf      []ident.NodeID
}

type changeRec struct {
	slot    int32
	v       ident.NodeID
	oldView []ident.NodeID // the slot's spare: valid until its next extraction
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
	t := &GroupTracker{e: src, dmax: src.Dmax(), workers: src.Workers()}
	t.ws = make([]*workerScratch, shard.Width(t.workers))
	for i := range t.ws {
		t.ws[i] = newWorkerScratch()
	}
	src.TrackDirty()
	return t
}

// firstSync builds what the first observation of n members would
// otherwise grow one join at a time: the maps at their first size, n group
// records with one-member storage on the free list (newGroup's only
// source), and every slot's two view buffers, Dmax+1 members each. Every
// cut is cap-clamped; a record or buffer that outgrows its own allocates.
func (t *GroupTracker) firstSync(n int) {
	t.watchers = make(map[ident.NodeID][]memberRef, n)
	t.groups = make(map[ident.NodeID]*group, n)
	t.pairCache = make(map[pairKey]pairVerdict, n)
	t.pairSpare = make(map[pairKey]pairVerdict, n)
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
	s := t.e.SlotOf(v)
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
	if c := t.e.SlotCap(); len(t.nodes) < c {
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
		t.added = append(t.added, t.e.Order()...)
		t.synced = true
		t.firstSync(len(t.added))
	}
	memberChurn := len(t.added) > 0 || len(t.removed) > 0

	g := t.e.LiveGraph()
	topoChanged := first || g != t.prevG || g.Generation() != t.prevGen
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
		if t.e.SlotOf(r.ID) >= 0 {
			t.added = append(t.added, r.ID)
			t.reborn = append(t.reborn, rebornRec{v: r.ID, old: st.grp.members})
		} else if len(st.grp.members) > 1 {
			// A member departing from a non-singleton group breaks ΠT
			// outright: its distance to the others is infinite in the new
			// topology. (The record itself dissolves this round — every
			// surviving member re-groups away from it below.)
			piTBroken = true
			st.grp.topoGen++
		}
		// The watcher refs are valid here: a watcher removed earlier in
		// this loop already dropped itself from every set, and one not yet
		// processed still owns its cache slot. Stale refs marked now are
		// re-validated when the affected set is finalized.
		for _, w := range t.watchers[r.ID] {
			t.markAffected(w)
		}
		if !st.good {
			t.badNodes--
		}
		t.detach(st.grp)
		t.dropWatcher(st.view, r.ID)
		st.id = ident.None
		st.grp = nil
		st.view = st.view[:0]
		t.shardRemove(r.ID)
		changedPartition = true
	}
	for _, a := range t.added {
		slot := t.e.SlotOf(a)
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
		st.viewHash = 0
		st.selfIn = false
		st.nbrs = st.nbrs[:0]
		st.nbrSlots = st.nbrSlots[:0]
		st.good = true
		st.born = t.round
		st.grp = t.newGroup(a, a)
		st.grp.refs = 1
		t.affEpoch[slot] = 0
		ref := memberRef{id: a, slot: slot}
		t.shardInsert(ref)
		t.shards[shard.Of(a)].extract = append(t.shards[shard.Of(a)].extract, slot)
		t.markAffected(ref)
		changedPartition = true
	}

	// Phase 2 (parallel): neighborhood sweep, only when the restricted
	// graph identity moved — detects exactly the nodes whose adjacency
	// changed, re-counts the edges and refreshes the cached neighbor
	// slots the boundary scan indexes by.
	if topoChanged {
		shard.Run(t.workers, func(s, w int) {
			sh := &t.shards[s]
			sh.topoDirty = sh.topoDirty[:0]
			sh.degSum = 0
			for _, m := range t.byShard[s] {
				st := &t.nodes[m.slot]
				// The CSR graph serves the neighborhood as a sorted flat
				// view of its internal storage, so the change filter is a
				// plain slice compare against the (equally sorted) cache —
				// no hash, no per-node re-extraction.
				nb := g.NeighborsView(m.id)
				sh.degSum += len(nb)
				if !idsEqual(st.nbrs, nb) {
					st.nbrs = append(st.nbrs[:0], nb...)
					st.nbrSlots = st.nbrSlots[:0]
					for _, u := range nb {
						st.nbrSlots = append(st.nbrSlots, t.e.SlotOf(u))
					}
					sh.topoDirty = append(sh.topoDirty, m.slot)
				} else if memberChurn {
					// Identical ID-neighborhood, but an in-window
					// remove/re-add can have moved a neighbor to another
					// slot: refresh the slots whenever membership churned.
					st.nbrSlots = st.nbrSlots[:0]
					for _, u := range st.nbrs {
						st.nbrSlots = append(st.nbrSlots, t.e.SlotOf(u))
					}
				}
			}
		})
		t.edges = 0
		for s := range t.shards {
			t.edges += t.shards[s].degSum
		}
		t.edges /= 2
		t.prevG, t.prevGen = g, g.Generation()
	}

	// Phase 3: ΠT refresh — re-evaluate the *previous* partition's
	// topology-dirty groups against the new graph (a group whose members
	// kept their adjacency keeps its cached verdict: its induced subgraph
	// is unchanged). ΠT is sampled before the partition update, ΠS after
	// it; both read the same per-record stretched flag.
	if topoChanged {
		t.evalList = t.evalList[:0]
		for s := range t.shards {
			for _, slot := range t.shards[s].topoDirty {
				grp := t.nodes[slot].grp
				grp.topoGen++
				if grp.evalRound != t.round && len(grp.members) > 1 {
					grp.evalRound = t.round
					t.evalList = append(t.evalList, grp)
				}
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
			if idsEqual(st.view, sh.vbuf) {
				continue
			}
			nv := append(st.spare[:0], sh.vbuf...)
			sh.changed = append(sh.changed, changeRec{slot: slot, v: st.id, oldView: st.view})
			st.view, st.spare = nv, st.view
			st.viewHash = hashIDs(nv)
			st.selfIn = containsID(nv, st.id)
		}
	})

	// Phase 5 (sequential): watcher index maintenance and the affected
	// set — a changed view affects the node itself and every node whose
	// view contains it.
	for s := range t.shards {
		for _, ch := range t.shards[s].changed {
			st := &t.nodes[ch.slot]
			me := memberRef{id: ch.v, slot: ch.slot}
			diffSorted(ch.oldView, st.view,
				func(gone ident.NodeID) { t.dropWatcherOne(gone, ch.v) },
				func(fresh ident.NodeID) { t.addWatcher(fresh, me) })
			t.markAffected(me)
			for _, w := range t.watchers[ch.v] {
				t.markAffected(w)
			}
		}
	}
	// Finalize the affected set: drop refs whose node is gone (or whose
	// slot was recycled — the new occupant marked itself on arrival) and
	// sort by ID to restore the canonical processing order; a reborn node
	// can be marked under both its old and its new slot, so equal IDs are
	// deduplicated too.
	aff := t.affected[:0]
	for _, ref := range t.affected {
		if t.nodes[ref.slot].id == ref.id {
			aff = append(aff, ref)
		}
	}
	t.affected = aff
	slices.SortFunc(t.affected, func(a, b memberRef) int { return cmp.Compare(a.id, b.id) })
	aff = t.affected[:0]
	for i, ref := range t.affected {
		if i == 0 || ref.id != t.affected[i-1].id {
			aff = append(aff, ref)
		}
	}
	t.affected = aff

	// Phase 6 (parallel): regroup — the local agreement check for every
	// affected node, a pure read of the freshly extracted views. Hashes
	// reject mismatches cheaply; equal hashes are confirmed by an exact
	// slice comparison, so the verdict matches metrics.Snapshot.Omega
	// bit for bit.
	t.regroup = slices.Grow(t.regroup[:0], len(t.affected))[:len(t.affected)]
	shard.Slots(t.workers, len(t.affected), func(i, w int) {
		ref := t.affected[i]
		st := &t.nodes[ref.slot]
		good := st.selfIn
		if good {
			for _, u := range st.view {
				su := t.state(u)
				if su == nil || su.viewHash != st.viewHash || !idsEqual(su.view, st.view) {
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
			same = idsEqual(old.members, st.view)
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
			target = t.groups[res.rep]
			if target == nil || !idsEqual(target.members, st.view) {
				target = t.newGroup(res.rep, st.view...)
				if len(st.view) > 1 {
					t.evalList = append(t.evalList, target)
				}
			}
		} else {
			target = t.groups[v]
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
		changedPartition = true
	}
	// Nodes removed and re-added within the window look new-born to the
	// partition update, but the bracketing-snapshot semantics still
	// compare their old Ω against the new one.
	if !first {
		for _, rb := range t.reborn {
			st := t.state(rb.v)
			if st == nil || idsEqual(rb.old, st.grp.members) {
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
	} else {
		t.ViolatingNodes += piCViolations
		t.TotalMembership += membership
		if !piT {
			t.TopologyBreaks++
		}
		if !piC {
			t.ContinuityBreaks++
			if piT {
				t.UnexcusedBreaks++
			}
		}
	}
	t.Rounds++

	// Mirror the observation counters into the engine's flight recorder,
	// so a registry snapshot carries the full picture (traffic, computes,
	// wakes AND observed violations) in one deterministic block. The
	// tracker's own cumulative fields stay authoritative for the soak
	// drift self-check; the registry copy is the unified surface.
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
		Edges:                t.edges,
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

// scanPairs rebuilds the external-edge count and the adjacent-group pair
// list, then refreshes the ΠM verdict cache: a pair is re-evaluated only
// when one of its records was replaced or had a member's neighborhood
// change; everything else reuses the cached verdict. Pairs that are no
// longer adjacent are dropped from the cache (the maps are
// double-buffered, so the working set never grows past one round's
// boundary pairs).
//
// The boundary walk is map-free: each node's cached neighbor slots (kept
// current by the phase-2 sweep, which runs whenever membership or
// topology changed) index the slot array directly.
func (t *GroupTracker) scanPairs(g *graph.G) {
	shard.Run(t.workers, func(s, w int) {
		sh := &t.shards[s]
		sh.nee = 0
		sh.pairs = sh.pairs[:0]
		for _, m := range t.byShard[s] {
			st := &t.nodes[m.slot]
			for i, u := range st.nbrs {
				if u <= m.id {
					continue
				}
				su := &t.nodes[st.nbrSlots[i]]
				if su.grp == st.grp {
					continue
				}
				sh.nee++
				e := pairEntry{k: pairKey{a: st.grp.rep, b: su.grp.rep}, ga: st.grp, gb: su.grp}
				if e.k.b < e.k.a {
					e.k.a, e.k.b = e.k.b, e.k.a
					e.ga, e.gb = e.gb, e.ga
				}
				sh.pairs = append(sh.pairs, e)
			}
		}
	})

	// Merge in shard-major order; the next-cache map doubles as the
	// cross-shard dedup (a pair's two sides resolve to the same records
	// regardless of which boundary edge reported it first).
	next := t.pairSpare // empty: cleared at the end of the last scan
	t.nee = 0
	t.pairList = t.pairList[:0]
	t.pending = t.pending[:0]
	for s := range t.shards {
		t.nee += t.shards[s].nee
		for _, e := range t.shards[s].pairs {
			if _, dup := next[e.k]; dup {
				continue
			}
			t.pairList = append(t.pairList, e.k)
			if v, ok := t.pairCache[e.k]; ok && v.ga == e.ga && v.gb == e.gb && v.ta == e.ga.topoGen && v.tb == e.gb.topoGen {
				next[e.k] = v
				continue
			}
			v := pairVerdict{ga: e.ga, gb: e.gb, ta: e.ga.topoGen, tb: e.gb.topoGen}
			if !e.ga.stretched && !e.gb.stretched &&
				len(e.ga.members)+len(e.gb.members) <= t.dmax+1 {
				// A connected graph on m ≤ Dmax+1 nodes has diameter at
				// most m−1 ≤ Dmax: both sides are connected (unstretched)
				// and the boundary edge joins them, so the union is
				// mergeable without a BFS. In a fragmented configuration
				// (many adjacent singletons) this resolves almost every
				// refreshed pair.
				v.mergeable = true
				next[e.k] = v
				continue
			}
			next[e.k] = v
			t.pending = append(t.pending, e)
		}
	}

	t.boolRes = slices.Grow(t.boolRes[:0], len(t.pending))
	res := t.boolRes[:len(t.pending)]
	shard.Slots(t.workers, len(t.pending), func(i, w int) {
		p := t.pending[i]
		res[i] = t.ws[w].mergeable(g, p.ga.members, p.gb.members, t.dmax)
	})
	for i, p := range t.pending {
		v := next[p.k]
		v.mergeable = res[i]
		next[p.k] = v
	}

	t.mergeCnt = 0
	for _, k := range t.pairList {
		if next[k].mergeable {
			t.mergeCnt++
		}
	}
	t.pairCache, t.pairSpare = next, t.pairCache
	clear(t.pairSpare)
}

// newGroup creates a record holding a copy of members — in a free record
// when there is one — registers it as the representative's canonical
// record and accounts it.
func (t *GroupTracker) newGroup(rep ident.NodeID, members ...ident.NodeID) *group {
	var grp *group
	if n := len(t.free); n == 0 {
		grp = &group{}
	} else {
		grp, t.free = t.free[n-1], t.free[:n-1]
		grp.refs, grp.evalRound, grp.stretched = 0, 0, false
		grp.topoGen++ // never reset: a pairCache verdict for this pointer must not match
	}
	grp.rep, grp.members = rep, append(grp.members[:0], members...)
	t.groups[rep] = grp
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
	if t.groups[grp.rep] == grp {
		delete(t.groups, grp.rep)
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

// addWatcher registers w as a watcher of u (w's view contains u), keeping
// the set ascending by watcher ID.
func (t *GroupTracker) addWatcher(u ident.NodeID, w memberRef) {
	ws := t.watchers[u]
	i := sort.Search(len(ws), func(i int) bool { return ws[i].id >= w.id })
	if i < len(ws) && ws[i].id == w.id {
		ws[i] = w
		return
	}
	ws = append(ws, memberRef{})
	copy(ws[i+1:], ws[i:])
	ws[i] = w
	t.watchers[u] = ws
}

// dropWatcherOne removes w from u's watcher set.
func (t *GroupTracker) dropWatcherOne(u, w ident.NodeID) {
	ws := t.watchers[u]
	i := sort.Search(len(ws), func(i int) bool { return ws[i].id >= w })
	if i < len(ws) && ws[i].id == w {
		ws = append(ws[:i], ws[i+1:]...)
		if len(ws) == 0 {
			delete(t.watchers, u)
		} else {
			t.watchers[u] = ws
		}
	}
}

// dropWatcher removes w from the watcher sets of every member of view.
func (t *GroupTracker) dropWatcher(view []ident.NodeID, w ident.NodeID) {
	for _, u := range view {
		t.dropWatcherOne(u, w)
	}
}

func (t *GroupTracker) shardInsert(ref memberRef) {
	s := shard.Of(ref.id)
	ids := t.byShard[s]
	i := sort.Search(len(ids), func(i int) bool { return ids[i].id >= ref.id })
	ids = append(ids, memberRef{})
	copy(ids[i+1:], ids[i:])
	ids[i] = ref
	t.byShard[s] = ids
}

func (t *GroupTracker) shardRemove(v ident.NodeID) {
	s := shard.Of(v)
	ids := t.byShard[s]
	i := sort.Search(len(ids), func(i int) bool { return ids[i].id >= v })
	if i < len(ids) && ids[i].id == v {
		t.byShard[s] = append(ids[:i], ids[i+1:]...)
	}
}

// Groups materializes the current partition, each group ascending, the
// list sorted by representative — the same shape as
// metrics.Snapshot.Groups, for tests and debug output.
func (t *GroupTracker) Groups() [][]ident.NodeID {
	out := make([][]ident.NodeID, 0, t.groupCount)
	for _, grp := range t.groups {
		out = append(out, slices.Clone(grp.members))
	}
	slices.SortFunc(out, func(a, b []ident.NodeID) int { return cmp.Compare(a[0], b[0]) })
	return out
}

// --- small sorted-slice helpers ---

func idsEqual(a, b []ident.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsID(sorted []ident.NodeID, v ident.NodeID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
	return i < len(sorted) && sorted[i] == v
}

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

// diffSorted walks two ascending slices and reports members only in a
// (gone) and only in b (fresh).
func diffSorted(a, b []ident.NodeID, gone, fresh func(ident.NodeID)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			gone(a[i])
			i++
		default:
			fresh(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		gone(a[i])
	}
	for ; j < len(b); j++ {
		fresh(b[j])
	}
}
