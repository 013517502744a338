// Package core implements the GRP distributed protocol of Ducourthial,
// Khalfallah and Petit: the per-node state machine that maintains the
// ordered list of ancestor sets with the ant r-operator, detects symmetric
// links with the mark triple handshake, bounds group diameters by Dmax with
// the compatibility test of Proposition 13, resolves merge overshoots with
// priorities, and delays view admission with the quarantine.
//
// The package is pure protocol logic: it has no clocks, no radio and no
// goroutines. A driver (internal/engine, or a custom transport through
// the grp facade) calls
//
//	Receive(msg)    upon message reception,
//	Compute()       at every Tc timer expiration (also resets the message
//	                buffer, which is how neighbor departures are detected),
//	BuildMessage()  at every Ts timer expiration (Ts ≤ Tc).
//
// The output used by applications is View: the composition of the node's
// group.
//
// The compute phase is allocation-light: the round's checked senders, the
// ancestor-list fold and the rebuilt view, quarantine and priority tables
// all compose in a Scratch (slice-backed, never maps rebuilt per round),
// priority learning reads the flat Message.Recs records instead of
// per-message maps, and only what actually changed is copied into the
// node — a round that reproduces the state copies nothing (see ComputeIn).
// A Node holds exactly the state whose content the protocol defines (list,
// view, quarantine, priority caches); whoever runs the compute holds the
// scratch; nothing reachable from an emitted Message is written while a
// receiver holds it (see BuildMessage). The pre-rewrite map-based paths are
// retained in reference.go as a differential oracle (see Scratch.SelfCheck).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/antlist"
	"repro/internal/ident"
	"repro/internal/priority"
)

// CompatMode selects the variant of the compatibility test (experiment
// E10 ablates the optimized test against the naive one).
type CompatMode int

const (
	// CompatFull is Proposition 13's test with the ∃i shortcut
	// optimization (and the AND-corrected bound; see DESIGN.md §3).
	CompatFull CompatMode = iota
	// CompatNaiveSum accepts a merge only when the plain length sum fits:
	// s(listv) + s(listu) ≤ Dmax + 1 (the i = 0 case only).
	CompatNaiveSum
)

// Config carries the protocol parameters, fixed for a whole execution.
type Config struct {
	// Dmax is the application-chosen bound on group diameters.
	Dmax int
	// Compat selects the compatibility test variant. Default CompatFull.
	Compat CompatMode
	// DisableQuarantine turns the quarantine mechanism off (ablation E12);
	// newcomers then enter views immediately.
	DisableQuarantine bool
	// BoundaryHold is how many computes a double-mark rejection of a
	// neighbor is remembered (the boundary memory): during the hold the
	// neighbor's lists are auto-rejected, which lets views consolidate
	// behind a freshly cut boundary instead of re-flooding and re-cutting
	// every other round. 0 selects the default Dmax+2; negative disables
	// the memory entirely (ablation).
	BoundaryHold int
	// RejectDebounce is how many consecutive computes a neighbor must be
	// found incompatible (by the compatibility test or a lost too-far
	// contest) before the hard double-mark cut: transient detour-inflated
	// positions during convergence would otherwise fire false contests
	// whose cuts create more detours. During the debounce the sender's
	// content is ignored gently (single mark). 0 selects the default 2;
	// negative cuts immediately (ablation).
	RejectDebounce int
}

// rejectDebounce resolves the configured debounce threshold.
func (c Config) rejectDebounce() int {
	switch {
	case c.RejectDebounce < 0:
		return 1
	case c.RejectDebounce == 0:
		return 2
	default:
		return c.RejectDebounce
	}
}

// boundaryHold resolves the configured hold duration.
func (c Config) boundaryHold() uint64 {
	switch {
	case c.BoundaryHold < 0:
		return 0
	case c.BoundaryHold == 0:
		return uint64(c.Dmax) + 2
	default:
		return uint64(c.BoundaryHold)
	}
}

// heardRec is one quarantine value heard this round (slice-backed scratch
// replacing the per-round `heard` map).
type heardRec struct {
	id ident.NodeID
	q  int32
}

// quarEntry is one tracked quarantine (the slice-backed replacement for
// the quarantine map; ascending by id).
type quarEntry struct {
	id ident.NodeID
	q  int32
}

// prec is one cached priority (the slice-backed replacement for the
// node/group priority cache maps; ascending by id).
type prec struct {
	id ident.NodeID
	p  priority.P
}

// precGet looks id up in an ascending prec slice.
func precGet(s []prec, id ident.NodeID) (priority.P, bool) {
	for i := range s {
		switch {
		case s[i].id == id:
			return s[i].p, true
		case s[i].id > id:
			return priority.P{}, false
		}
	}
	return priority.P{}, false
}

// rejEntry is one boundary-memory record (sender → expiry compute).
type rejEntry struct {
	id  ident.NodeID
	exp uint64
}

// streakEntry is one incompatibility-observation counter. A zero count is
// equivalent to an absent entry.
type streakEntry struct {
	id ident.NodeID
	c  int32
}

// quarGet looks id up in an ascending quarEntry slice.
func quarGet(quar []quarEntry, id ident.NodeID) (int, bool) {
	for i := range quar {
		switch {
		case quar[i].id == id:
			return int(quar[i].q), true
		case quar[i].id > id:
			return 0, false
		}
	}
	return 0, false
}

// containsID reports membership in an ascending ID slice.
func containsID(ids []ident.NodeID, id ident.NodeID) bool {
	for _, v := range ids {
		switch {
		case v == id:
			return true
		case v > id:
			return false
		}
	}
	return false
}

// Node is the GRP state of one network node — state only: the working
// memory a compute needs, and the switch that runs it under the reference
// oracle, live in a Scratch the node merely points to.
type Node struct {
	cfg Config
	id  ident.NodeID

	list antlist.List
	// view and quar are group-sized and consulted constantly, so they are
	// sorted slices, not maps: a linear probe with early exit beats a map
	// at these sizes, and the per-compute rebuild is an append-and-sort
	// into the scratch instead of a map churn.
	view     []ident.NodeID // ascending
	quar     []quarEntry    // ascending by id
	prios    []prec         // node-priority cache, ascending by id
	gprs     []prec         // group-priority cache, ascending by id
	self     priority.P
	group    priority.P
	msgSet   []Message     // one buffered message per sender (last wins)
	rejected []rejEntry    // boundary memory
	streak   []streakEntry // consecutive incompatibility observations
	synced   bool          // one-time clock sync at first contact done

	computes uint64
	version  uint64 // bumped on every observable-state change (Compute, LoadState)
	viewVer  uint64 // bumped only when the view *content* changes

	// Round-quietness bookkeeping for activity-driven drivers (see
	// RoundQuietness): quiet classifies the last executed Compute,
	// streakMoved records whether that round changed any incompatibility
	// streak, rejectedMoved whether it dropped (expiry) or added/refreshed
	// (rejection) a boundary-memory entry — the two pieces of
	// decision-relevant state the version deliberately does not cover.
	quiet         Quietness
	streakMoved   bool
	rejectedMoved bool
	// overflowed records whether the last executed Compute entered the
	// too-far contest (the fold exceeded Dmax+1 positions). The contest
	// reads priorities of nodes the receiver does not track, which the
	// masked inbox digest deliberately leaves unhashed — so fixpoint
	// proofs must never be taken from such a round (see InboxReadDigest).
	overflowed bool

	scr *Scratch // where computes work: SetScratch's, else a private one
}

// Scratch is the working memory of one compute: the fold arena, the
// round's checked senders and heard quarantines, the buffers the new view,
// quarantine and priority tables are built in before being compared with
// the node's own, and InboxReadDigest's tracked-ID set. Nothing in a
// Scratch but its SelfCheck switch is read before it is written within one
// call, so it carries no state between computes and nodes that never
// compute at the same time may share one: records hold state, the worker
// holds scratch. The zero value is ready to use.
type Scratch struct {
	// SelfCheck, when true, cross-validates every Compute and BuildMessage
	// of a node working here against the retained pre-rewrite reference
	// implementations (reference.go), panicking on any divergence, and
	// scribbles over the scratch after every use so that a read of another
	// compute's leftovers diverges too. The conformance suite arms whole
	// engines (Engine.SetSelfCheck); production paths pay a single branch.
	SelfCheck bool
	// Lists is where a changed list is committed (ComputeIn, LoadState): a
	// driver that knows when a replaced list is dead sets Lists.Take.
	Lists   antlist.Store
	bld     antlist.Builder
	incs    []incoming // the inbox in preference order
	heard   []heardRec
	view    []ident.NodeID
	quar    []quarEntry
	prios   []prec
	gprs    []prec
	readSet []ident.NodeID
}

// SetScratch makes n work in s, which a driver running many nodes one at a
// time shares among them (the engine: one per shard).
func (n *Node) SetScratch(s *Scratch) { n.scr = s }

// scratch returns the node's working memory, private if none was set.
func (n *Node) scratch() *Scratch {
	if n.scr == nil {
		n.scr = new(Scratch)
	}
	return n.scr
}

// prioOf looks u up in the node-priority cache.
func (n *Node) prioOf(u ident.NodeID) (priority.P, bool) { return precGet(n.prios, u) }

// gprOf looks u up in the group-priority cache.
func (n *Node) gprOf(u ident.NodeID) (priority.P, bool) { return precGet(n.gprs, u) }

// rejectedUntil returns the boundary-memory expiry for u (0 = none).
func (n *Node) rejectedUntil(u ident.NodeID) uint64 {
	for i := range n.rejected {
		if n.rejected[i].id == u {
			return n.rejected[i].exp
		}
	}
	return 0
}

// streakOf returns u's incompatibility streak.
func (n *Node) streakOf(u ident.NodeID) int {
	for i := range n.streak {
		if n.streak[i].id == u {
			return int(n.streak[i].c)
		}
	}
	return 0
}

// setStreak records u's streak (0 clears; an absent entry counts as 0).
func (n *Node) setStreak(u ident.NodeID, c int) {
	for i := range n.streak {
		if n.streak[i].id == u {
			if n.streak[i].c != int32(c) {
				n.streak[i].c = int32(c)
				n.streakMoved = true
			}
			return
		}
	}
	if c != 0 {
		n.streak = append(n.streak, streakEntry{id: u, c: int32(c)})
		n.streakMoved = true
	}
}

// inView reports whether u is in the node's current view.
func (n *Node) inView(u ident.NodeID) bool { return containsID(n.view, u) }

// NewNode returns a freshly booted node: alone in its list and view, clock
// zero.
func NewNode(id ident.NodeID, cfg Config) *Node { return &NewNodes([]ident.NodeID{id}, cfg)[0] }

// NewNodes boots one node per id over shared slabs: the nodes themselves,
// and one slab for each of their one-entry slices. Every cut is
// cap-clamped, so the first growth moves that slice into storage of its
// own and no node can write its neighbour's entry; nothing is ever
// returned to a slab.
func NewNodes(ids []ident.NodeID, cfg Config) []Node {
	if cfg.Dmax < 1 {
		panic(fmt.Sprintf("core: Dmax must be ≥ 1, got %d", cfg.Dmax))
	}
	nodes := make([]Node, len(ids))
	ents := make([]ident.Entry, len(ids))
	view := slices.Clone(ids)
	quar := make([]quarEntry, len(ids))
	precs := make([]prec, 2*len(ids)) // prios, gprs
	for i, id := range ids {
		p := priority.New(id)
		ents[i], quar[i] = ident.Plain(id), quarEntry{id: id}
		precs[2*i], precs[2*i+1] = prec{id: id, p: p}, prec{id: id, p: p}
		nodes[i] = Node{
			cfg:   cfg,
			id:    id,
			list:  antlist.SingletonOver(ents[i:]),
			view:  view[i : i+1 : i+1],
			quar:  quar[i : i+1 : i+1],
			prios: precs[2*i : 2*i+1 : 2*i+1],
			gprs:  precs[2*i+1 : 2*i+2 : 2*i+2],
			self:  p,
			group: p,

			viewVer: 1,
		}
	}
	return nodes
}

// ID returns the node's identity.
func (n *Node) ID() ident.NodeID { return n.id }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// List returns the current ordered list of ancestor sets (a copy).
func (n *Node) List() antlist.List { return n.list.Clone() }

// View returns the group composition as seen by this node, ascending.
// This is the protocol's output, the view_v the applications use.
func (n *Node) View() []ident.NodeID {
	return slices.Clone(n.view)
}

// ViewSet returns the view as a set (a copy).
func (n *Node) ViewSet() map[ident.NodeID]bool {
	out := make(map[ident.NodeID]bool, len(n.view))
	for _, v := range n.view {
		out[v] = true
	}
	return out
}

// InView reports whether u is currently in the node's view.
func (n *Node) InView(u ident.NodeID) bool { return n.inView(u) }

// Priority returns the node's own priority.
func (n *Node) Priority() priority.P { return n.self }

// GroupPriority returns the node's group priority (min over its view).
func (n *Node) GroupPriority() priority.P { return n.group }

// Computes returns the number of Compute calls so far (the protocol's
// logical time on this node).
func (n *Node) Computes() uint64 { return n.computes }

// Version returns a counter that increases whenever the node's observable
// protocol state changed (a Compute that moved any of list, view,
// quarantine, priority caches, self or group priority; every LoadState).
// A Compute that reproduced the state exactly — the steady state of a
// settled group — leaves it untouched. The outputs of BuildMessage, View
// and List are pure functions of the state at a given version, which is
// what lets a driver cache the broadcast across computes instead of
// re-assembling it on every send timer.
func (n *Node) Version() uint64 { return n.version }

// ViewVersion returns a counter that increases only when the view's
// *content* changes (a Compute that leaves the view identical does not
// move it, unlike Version). Incremental observers (obs.GroupTracker) key
// their per-node view caches on it: at steady state every compute is a
// single counter comparison instead of a view re-extraction.
func (n *Node) ViewVersion() uint64 { return n.viewVer }

// Quietness classifies an executed Compute round for activity-driven
// drivers: whether feeding the node the exact same inbox again would
// provably reproduce the round without running it.
type Quietness uint8

const (
	// QuietNone: the round moved decision-relevant state; the next round
	// must run in full.
	QuietNone Quietness = iota

	// QuietFixpoint: the round reproduced the node's state bit for bit
	// (version unmoved), changed no incompatibility streak, and left the
	// boundary memory empty. Compute is then a pure deterministic function
	// of (state, inbox): an identical inbox yields the identical no-op,
	// which a driver may replay with SkipQuietRound.
	QuietFixpoint

	// QuietLonely: an isolated singleton's steady state — empty inbox,
	// and the only moving state is the self-clock tick chain (self, its
	// priority-cache entry, and the group priority trailing it). The next
	// empty-inbox round is the same closed-form step, which a driver may
	// replay with SkipLonelyRound.
	QuietLonely

	// QuietHeld: a stable group boundary — the round reproduced the state
	// bit for bit (version unmoved, streaks untouched) *except* that the
	// boundary memory is non-empty: one or more neighbors are being
	// auto-rejected under an active hold. Such a round consults the round
	// counter only through the hold-expiry filter, so with an identical
	// inbox it replays itself verbatim until the first hold expires: a
	// driver may replay it with SkipQuietRound while
	// Computes() < HoldHorizon(). The classification additionally
	// requires that the round neither dropped nor added/refreshed any
	// boundary-memory entry (an expiry or a fresh rejection makes the
	// next round re-probe, which is not a replay).
	QuietHeld
)

// RoundQuietness reports the classification of the last executed Compute
// (QuietNone until the first Compute, and after LoadState). It is the
// engine-facing "round would be a no-op" predicate: together with an
// unchanged Version and an inbox identical to the one that round
// consumed, it licenses skipping the next Compute entirely.
func (n *Node) RoundQuietness() Quietness { return n.quiet }

// SkipQuietRound applies the exact effect a Compute would have on a
// QuietFixpoint or QuietHeld state receiving the same inbox as the round
// that classified it: the logical round counter advances and the buffered
// messages are consumed; nothing observable moves (Version included) —
// on a held state the boundary memory and every streak provably
// reproduce themselves too. The caller owns the precondition —
// RoundQuietness() is one of the two, no intervening LoadState, a
// buffered message set identical (same senders, same message contents)
// to the classified round's, and for QuietHeld Computes() < HoldHorizon()
// so the replayed round's expiry filter keeps the memory untouched. The
// engine establishes it by tracking per-sender message versions between
// compute boundaries.
func (n *Node) SkipQuietRound() {
	n.computes++
	clear(n.msgSet)
	n.msgSet = n.msgSet[:0]
}

// SkipLonelyRound applies the exact effect a Compute would have on a
// QuietLonely state with an empty inbox: the round counter advances, the
// isolation clock ticks (self, its pinned priority-cache entry, and the
// group priority that equals it), and Version moves — the tick is
// observable in the node's broadcast. Everything else (list, view,
// quarantine, group-priority cache, ViewVersion) provably reproduces
// itself and stays untouched. The caller owns the precondition, exactly
// as for SkipQuietRound.
func (n *Node) SkipLonelyRound() {
	n.computes++
	clear(n.msgSet)
	n.msgSet = n.msgSet[:0]
	n.self = n.self.Tick()
	n.storeSelfPrio()
	n.group = n.self
	n.version++
}

// StateDigest returns a 64-bit content hash of every decision-relevant
// input Compute consults, with exactly two deliberate exclusions that
// the fixpoint-memo machinery (the caller, DESIGN.md §2.3) accounts for
// by other means:
//
//   - the compute counter, which enters Compute only through the
//     boundary-memory expiry filter (a no-op while
//     Computes() < HoldHorizon(), the gate the caller must hold) and
//     through reject's hold jitter (unreachable in a round that rejects
//     nothing — and a round proven quiet rejected nothing);
//   - the boundary-memory expiry *values*, which by the same two
//     arguments are never read by such a round; the rejected *set* (the
//     ids) is hashed, since it selects the auto-reject branch per sender.
//
// Everything else is folded in: the list (entries, marks, and position
// structure), the view, the quarantine table, both priority caches, the
// node's own and group priority, the incompatibility streaks, and the
// one-time clock-sync flag. Two states with equal digests at the same
// configuration therefore drive Compute through identical branches for
// an identical inbox — even when their version counters differ, which is
// what lets a driver recognize a state that *cycled back* to content it
// has already proven a fixpoint of. Streaks and boundary entries are
// hashed in their stored order; a content-equal state reached through a
// different observation order may hash differently, which costs a memo
// hit but never soundness. The digest is recomputed from scratch on each
// call (O(state)); callers cache it per version.
func (n *Node) StateDigest() uint64 {
	h := digSeed
	mix := func(v uint64) { h = digMix(h, v) }
	mix(uint64(n.list.Len()))
	for i := 0; i < n.list.Len(); i++ {
		set := n.list.At(i)
		mix(uint64(len(set)))
		for _, e := range set {
			mix(uint64(e.ID))
			mix(uint64(e.Mark))
		}
	}
	mix(uint64(len(n.view)))
	for _, v := range n.view {
		mix(uint64(v))
	}
	mix(uint64(len(n.quar)))
	for i := range n.quar {
		mix(uint64(n.quar[i].id))
		mix(uint64(uint32(n.quar[i].q)))
	}
	mix(uint64(len(n.prios)))
	for i := range n.prios {
		mix(uint64(n.prios[i].id))
		mix(n.prios[i].p.Clock)
		mix(uint64(n.prios[i].p.ID))
	}
	mix(uint64(len(n.gprs)))
	for i := range n.gprs {
		mix(uint64(n.gprs[i].id))
		mix(n.gprs[i].p.Clock)
		mix(uint64(n.gprs[i].p.ID))
	}
	mix(n.self.Clock)
	mix(uint64(n.self.ID))
	mix(n.group.Clock)
	mix(uint64(n.group.ID))
	mix(uint64(len(n.streak)))
	for i := range n.streak {
		mix(uint64(n.streak[i].id))
		mix(uint64(uint32(n.streak[i].c)))
	}
	mix(uint64(len(n.rejected)))
	for i := range n.rejected {
		mix(uint64(n.rejected[i].id))
	}
	if n.synced {
		mix(1)
	} else {
		mix(0)
	}
	return h
}

// RoundOverflowed reports whether the last executed Compute entered the
// too-far contest (its fold exceeded Dmax+1 positions). Such a round
// read priorities of nodes outside the receiver's tracked set, which
// InboxReadDigest does not hash — fixpoint proofs must not be taken
// from it.
func (n *Node) RoundOverflowed() bool { return n.overflowed }

// InboxReadDigest returns a 64-bit content hash of the buffered message
// set restricted to what the next Compute can read given this node's
// current state: each message's MaskedDigest under the node's
// tracked-ID set (its own list's nodes, marks included, plus itself —
// the exact set learnPriorities resolves records for), folded in
// Compute's own deterministic preference order. Folding in that order
// is what pins the one message-level field the projection leaves
// unhashed — the advertised group priority, whose only reader is the
// preference sort itself: two inboxes that sort identically and match
// record for record under the mask drive Compute through identical
// branches, no matter how the unread priority values differ.
//
// Messages from senders held in the boundary memory are digested with
// their list dropped (MaskedDigest's dropList): the rejected-until
// branch discards a held sender's list unread, so its content cannot
// influence the round. Membership in n.rejected is the right predicate
// on both memo paths — a proof round kept every entry live (an eviction
// sets rejectedMoved, killing quietness) and a replay runs under the
// HoldHorizon gate, which keeps them live again.
//
// Together with StateDigest this is the fixpoint-memo key (DESIGN.md
// §2.3). The masking is sound because equal state digests pin the list
// and the boundary-memory IDs, and therefore pin the mask itself: a
// proof stored as (StateDigest, InboxReadDigest) can only be consulted
// from a state whose tracked set and held-sender set — and hence whose
// read projection and sort keys — are identical, and two inboxes with
// equal projections drive that Compute through identical branches to an
// identical result, except when the round enters the too-far contest,
// which RoundOverflowed exposes so callers refuse the proof.
func (n *Node) InboxReadDigest() uint64 {
	s := n.scratch()
	ids := s.readSet[:0]
	for _, e := range n.list.Entries() {
		ids = append(ids, e.ID)
	}
	ids = append(ids, n.id)
	slices.Sort(ids)
	s.readSet = ids
	inRead := func(u ident.NodeID) bool {
		_, ok := slices.BinarySearch(ids, u)
		return ok
	}
	h := digMix(digSeed, uint64(len(n.msgSet)))
	for _, in := range n.sortedInbox(s) {
		h = digMix(h, in.msg.MaskedDigest(n.id, inRead, n.rejectedUntil(in.msg.From) != 0))
	}
	if s.SelfCheck {
		s.scribble()
	}
	return h
}

// HoldHorizon returns the earliest boundary-memory expiry (0 when the
// memory is empty): the last round counter value for which a QuietHeld
// round still replays itself. A driver may call SkipQuietRound on such a
// state while Computes() < HoldHorizon(); the round that would reach the
// horizon drops the expired hold and must run in full.
func (n *Node) HoldHorizon() uint64 {
	var min uint64
	for i := range n.rejected {
		if min == 0 || n.rejected[i].exp < min {
			min = n.rejected[i].exp
		}
	}
	return min
}

// AppendView appends the view members in ascending order to buf and
// returns the extended slice — the allocation-free variant of View.
func (n *Node) AppendView(buf []ident.NodeID) []ident.NodeID {
	return append(buf, n.view...)
}

// QuarantineOf returns the remaining quarantine of u, or -1 when u is not
// tracked (absent or marked in the list).
func (n *Node) QuarantineOf(u ident.NodeID) int {
	if q, ok := quarGet(n.quar, u); ok {
		return q
	}
	return -1
}

// AppendState appends one line holding the node's protocol-visible state
// — list, view, own and group priority, self-quarantine — to b: byte for
// byte what fmt prints for "%d|%s|%v|%s|%s|%d\n" over ID, List, View,
// Priority, GroupPriority and QuarantineOf(ID), without cloning any of
// them. It is the line the trace fingerprints hash.
func (n *Node) AppendState(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(n.id), 10)
	b = n.list.AppendString(append(b, '|'))
	b = append(b, "|["...)
	for i, v := range n.view {
		if i > 0 {
			b = append(b, ' ')
		}
		b = v.AppendString(b)
	}
	b = n.self.AppendString(append(b, "]|"...))
	b = n.group.AppendString(append(b, '|'))
	b = strconv.AppendInt(append(b, '|'), int64(n.QuarantineOf(n.id)), 10)
	return append(b, '\n')
}

// LoadState overwrites the node's protocol state. It exists for the
// self-stabilization experiments, which must start executions from
// arbitrary (corrupted) configurations; the protocol never calls it.
// Nil maps leave the corresponding field at a consistent default derived
// from the list.
func (n *Node) LoadState(list antlist.List, view map[ident.NodeID]bool, quar map[ident.NodeID]int, self priority.P) {
	n.list = list.Publish(n.list, &n.scratch().Lists)
	n.view = n.view[:0]
	if view != nil {
		for k, in := range view {
			if in {
				n.view = append(n.view, k)
			}
		}
		slices.Sort(n.view)
	} else {
		n.view = append(n.view, n.id)
	}
	n.quar = n.quar[:0]
	if quar != nil {
		for k, v := range quar {
			n.quar = append(n.quar, quarEntry{id: k, q: int32(v)})
		}
	} else {
		n.quar = append(n.quar, quarEntry{id: n.id})
		for _, u := range list.IDs() {
			if u != n.id {
				n.quar = append(n.quar, quarEntry{id: u})
			}
		}
	}
	slices.SortFunc(n.quar, func(a, b quarEntry) int { return cmp.Compare(a.id, b.id) })
	n.quar = slices.CompactFunc(n.quar, func(a, b quarEntry) bool { return a.id == b.id })
	n.self = self
	n.prios = append(n.prios[:0], prec{id: n.id, p: self})
	n.gprs = append(n.gprs[:0], prec{id: n.id, p: self})
	n.group = self
	n.rejected = n.rejected[:0]
	n.streak = n.streak[:0]
	n.synced = true
	n.version++
	n.viewVer++
	n.quiet = QuietNone // an injected state invalidates any skip license
	n.streakMoved = false
	n.rejectedMoved = false
}

// PoisonBoundary force-installs a boundary-memory entry against u, as if
// the node had double-marked u, holding for the next holdComputes compute
// rounds. Like LoadState it exists only for the self-stabilization fault
// experiments (the "arbitrary initial state" premise extends to the
// boundary memory, which LoadState clears): a poisoned entry makes the
// node auto-reject a genuine neighbor until the hold expires, the exact
// corruption the expiry filter must recover from. The state version moves
// and any quiet-skip license is revoked, so drivers re-run the node in
// full.
func (n *Node) PoisonBoundary(u ident.NodeID, holdComputes uint64) {
	if u == n.id || holdComputes == 0 {
		return
	}
	exp := n.computes + holdComputes
	found := false
	for i := range n.rejected {
		if n.rejected[i].id == u {
			n.rejected[i].exp = exp
			found = true
			break
		}
	}
	if !found {
		n.rejected = append(n.rejected, rejEntry{id: u, exp: exp})
	}
	n.version++
	n.quiet = QuietNone
}

// Receive stores a neighbor's message. Only the last message per sender is
// kept (one-message channel); self-messages are ignored. The buffer is a
// small slice scanned linearly — sender counts are node degrees, where
// the scan beats the map the seed used.
func (n *Node) Receive(m Message) { n.ReceiveRef(&m) }

// ReceiveRef is Receive without the by-value argument copy: the message
// is only copied into the buffer on store. Hot delivery paths (the
// engine delivers a few hundred thousand receptions per tick, each from
// a long-lived cached broadcast) call this directly.
func (n *Node) ReceiveRef(m *Message) {
	if m.From == n.id || m.From == ident.None {
		return
	}
	for i := range n.msgSet {
		if n.msgSet[i].From == m.From {
			n.msgSet[i] = *m
			return
		}
	}
	n.msgSet = append(n.msgSet, *m)
}

// SetInbox hands the node empty storage for its message buffer: a driver
// that knows the node's degree reserves it.
func (n *Node) SetInbox(buf []Message) { n.msgSet = buf[:0] }

// PendingMessages returns how many distinct senders are buffered (used by
// drivers and tests).
func (n *Node) PendingMessages() int { return len(n.msgSet) }

// BuildMessage assembles the broadcast for the Ts timer: the current list
// with the priorities of every node in it and the group priority. The
// result is a pure function of the node's state (see Version), so drivers
// may cache and share it between computes. The list is shared, not cloned:
// a commit that changes it publishes into other storage (Scratch.Lists). A
// receiver aliases List and Recs until its next Compute or Skip*Round
// resets its message set, and no longer.
func (n *Node) BuildMessage() Message { return n.BuildMessageIn(nil) }

// RecsNeeded is the broadcast's record count: one per list entry, plus the
// node's own when a corrupted list omits it.
func (n *Node) RecsNeeded() int {
	if n.list.Has(n.id) {
		return n.list.NodeCount()
	}
	return n.list.NodeCount() + 1
}

// BuildMessageIn is BuildMessage assembled into recs[:0], which no receiver
// may still hold; it allocates only when cap(recs) < RecsNeeded().
func (n *Node) BuildMessageIn(recs []PrioRec) Message {
	need := n.RecsNeeded()
	if cap(recs) < need {
		recs = slices.Grow([]PrioRec(nil), need)
	}
	recs = recs[:0]
	for i := 0; i < n.list.Len(); i++ {
		for _, e := range n.list.At(i) {
			u := e.ID
			r := PrioRec{
				ID: u, Mark: e.Mark, Pos: int16(i), Quar: -1,
				HasPrio: true, HasGroupPrio: true,
			}
			if u == n.id {
				r.Prio, r.GroupPrio = n.self, n.group
			} else {
				if p, ok := n.prioOf(u); ok {
					r.Prio = p
				} else {
					r.Prio = priority.Infinite
				}
				switch {
				case n.inView(u):
					r.GroupPrio = n.group
				default:
					if g, ok := n.gprOf(u); ok {
						r.GroupPrio = g
					} else {
						r.GroupPrio = r.Prio
					}
				}
			}
			if q, ok := quarGet(n.quar, u); ok && q > 0 {
				r.Quar = int16(q)
			}
			recs = append(recs, r)
		}
	}
	if len(recs) < need { // a corrupted list omits the node itself
		recs = append(recs, PrioRec{
			ID: n.id, Pos: -1, Quar: -1,
			HasPrio: true, HasGroupPrio: true,
			Prio: n.self, GroupPrio: n.group,
		})
	}
	SortRecs(recs)
	m := Message{
		From:      n.id,
		List:      n.list,
		Recs:      recs,
		GroupPrio: n.group,
	}
	if n.scr != nil && n.scr.SelfCheck {
		n.checkRefMessage(m)
	}
	return m
}

// incoming is one checked entry of the message set during a computation:
// the buffered message (in place, in n.msgSet) and the list it is folded as.
type incoming struct {
	list antlist.List
	msg  *Message
}

// prefCmp is Compute's stable preference order over received messages:
// view members first (their lists are never subject to the compatibility
// test), then senders by their advertised group priority (oldest first),
// then by ID. InboxReadDigest folds the buffer in exactly this order —
// that shared comparator is what lets the masked digest leave the
// message-level group priority unhashed (see Message.MaskedDigest), so
// the two must never diverge.
func (n *Node) prefCmp(x, y *Message) int {
	a, b := x.From, y.From
	av, bv := n.inView(a), n.inView(b)
	if av != bv {
		if av {
			return -1
		}
		return 1
	}
	if x.GroupPrio != y.GroupPrio {
		if x.GroupPrio.Less(y.GroupPrio) {
			return -1
		}
		return 1
	}
	if a < b {
		return -1
	}
	return 1
}

// sortedInbox returns the buffered messages in preference order — the one
// walk Compute and InboxReadDigest share — built in s.incs.
func (n *Node) sortedInbox(s *Scratch) []incoming {
	incs := s.incs[:0]
	for i := range n.msgSet {
		incs = append(incs, incoming{msg: &n.msgSet[i]})
	}
	slices.SortFunc(incs, func(x, y incoming) int { return n.prefCmp(x.msg, y.msg) })
	s.incs = incs
	return incs
}

// Compute runs procedure compute() of §4.3 and then resets the message
// buffer (line 5 of the main algorithm), working in the node's scratch.
func (n *Node) Compute() { n.ComputeIn(nil) }

// ComputeIn is Compute with the fold arena supplied by the caller: the
// whole ⊕ fold composes inside b (reset here; its previous content is
// irrelevant), and only the commit at the end copies the result out — a
// round that reproduces the current list byte for byte keeps the existing
// allocation and, when nothing else observable moved either, leaves the
// node's Version untouched so drivers keep their cached broadcast. A nil
// builder uses the scratch's own.
func (n *Node) ComputeIn(b *antlist.Builder) {
	s := n.scratch()
	if b == nil {
		b = &s.bld
	}
	n.computes++
	dmax := n.cfg.Dmax
	oldSelf, oldGroup := n.self, n.group
	emptyInbox := len(n.msgSet) == 0
	n.streakMoved = false
	n.rejectedMoved = false
	n.overflowed = false

	// Check order is a stable preference order, not plain ID order: view
	// members first (their lists are never subject to the compatibility
	// test), then senders by their advertised group priority (oldest
	// first), then by ID. The first compatible content a node folds is
	// what it commits to for the round, so this order makes every
	// uncommitted node side with the *oldest* adjacent group — the same
	// greedy accretion the maximality proof (Prop. 11) reasons about —
	// instead of an arbitrary choice that can flip between rounds and
	// keep the network in metastable partitions. The fold itself (⊕) is
	// order-independent.
	incs := n.sortedInbox(s)
	// Expire boundary memory (in-place filter; empty at steady state of an
	// interior node, stable under an active hold at a group boundary).
	if len(n.rejected) > 0 {
		was := len(n.rejected)
		kept := n.rejected[:0]
		for _, r := range n.rejected {
			if n.computes <= r.exp {
				kept = append(kept, r)
			}
		}
		n.rejected = kept
		if len(kept) != was {
			n.rejectedMoved = true
		}
	}

	// Lines 1–9 fused with 10–13: check the received lists in
	// deterministic sender order while building the fold incrementally.
	// Each compatibility test sees the partial fold, so content already
	// committed from earlier senders is protected against later
	// incompatible senders — this is what lets a lone node bridging two
	// far-apart groups side with one of them instead of absorbing both
	// and being punished by each in turn. The partial fold lives in the
	// recycled builder arena; b.View() is a zero-copy read of it.
	b.BeginRound(ident.Plain(n.id))
	for i := range incs {
		msg := incs[i].msg
		u := msg.From
		lu := n.cleanReceived(b, msg.List)
		switch {
		case n.rejectedUntil(u) != 0:
			// Boundary memory: the sender was recently rejected as
			// incompatible; hold the boundary while views consolidate.
			lu = b.Singleton(ident.Double(u))
		case !n.goodList(u, lu):
			// Line 4: the list is ignored but the sender is kept
			// (single mark: asymmetric / unconfirmed link). Not evidence
			// of incompatibility: the streak is left alone.
			lu = b.Singleton(ident.Single(u))
		case !n.inView(u):
			qsafe, ok := n.safePrefix(u, b.View(), lu)
			if !ok || qsafe < foreignDepth(n, lu) {
				// Line 7: u is denoted as an incompatible neighbor
				// (after the debounce; see escalate).
				lu = n.escalate(b, u)
			} else {
				n.setStreak(u, 0)
			}
		default:
			n.setStreak(u, 0)
		}
		incs[i].list = lu
		b.Ant(lu)
	}

	// Lines 10–13: the fold of the checked lists (built above). newList
	// stays a view of the builder arena until the commit below.
	newList := holeTruncate(b.View())

	// Lines 14–29: removal of incoming lists containing too-far nodes.
	if newList.Len() > dmax+1 {
		n.overflowed = true
		for _, w := range newList.At(dmax + 1) {
			if w.Mark.Marked() {
				continue // marks never travel that far; defensive
			}
			if n.farNodeHasPriority(w.ID, incs) {
				for i := range incs {
					if pos, _ := incs[i].list.Position(w.ID); pos == dmax {
						// Line 19: the neighbor that provided w is
						// ignored (after the debounce; see escalate).
						incs[i].list = n.escalate(b, incs[i].msg.From)
					}
				}
			}
		}
		newList = n.fold(b, incs)
		// Line 28: remaining too-far nodes did not have the priority.
		newList = newList.Truncate(dmax + 1)
	}

	// Learn priorities for the nodes we now track.
	var refPrios, refGprs map[ident.NodeID]priority.P
	if s.SelfCheck {
		refPrios, refGprs = precMap(n.prios), precMap(n.gprs)
	}
	priosSame, gprsSame := n.learnPriorities(s, newList, incs)
	if s.SelfCheck {
		n.checkRefLearnPriorities(newList, incs, refPrios, refGprs)
	}

	// Line 30: update quarantines. The quarantine clock of a node starts
	// when it first appears *plain* (marked entries are not propagated, so
	// the group learns about the newcomer only from then on).
	nq := s.quar[:0]
	if !n.cfg.DisableQuarantine {
		// The smallest remaining quarantine heard per node this round
		// (inheritance; see the Quar record), plus the reverse direction:
		// when a sender's message says *our* remaining quarantine is k,
		// the join completes in k rounds — so our own countdown for the
		// sender's already-admitted members (entries it lists without a
		// quarantine) syncs to the same k, and both sides' views flip in
		// the same round. The fold is a min, so the slice-backed scratch
		// (empty at steady state) replays the former map bit for bit.
		heard := s.heard[:0]
		for i := range incs {
			msg := incs[i].msg
			selfQ := int32(-1)
			for _, r := range msg.Recs {
				if r.Quar >= 0 {
					heard = heardMin(heard, r.ID, int32(r.Quar))
					if r.ID == n.id && selfQ < 0 {
						selfQ = int32(r.Quar)
					}
				}
			}
			if selfQ >= 0 {
				for _, r := range msg.Recs {
					if r.Pos < 0 || r.Mark.Marked() || r.ID == n.id || r.Quar >= 0 {
						continue
					}
					heard = heardMin(heard, r.ID, selfQ)
				}
			}
		}
		s.heard = heard
		// The new quarantine slice is appended in list order (each node
		// appears once in a normalized fold), the self entry forced to 0,
		// then sorted — same content the former map rebuild produced.
		selfAt := -1
		for _, e := range newList.Entries() {
			if e.Mark.Marked() {
				continue
			}
			q, known := quarGet(n.quar, e.ID)
			if !known {
				q = dmax
			} else if q > 0 {
				q--
			}
			// The heard value was sampled before the peer's own
			// decrement this round; inherit h-1 so both countdowns
			// hit zero in the same round.
			if h, ok := heardGet(heard, e.ID); ok && int(h)-1 < q {
				q = int(h) - 1
				if q < 0 {
					q = 0
				}
			}
			if e.ID == n.id {
				selfAt = len(nq)
			}
			nq = append(nq, quarEntry{id: e.ID, q: int32(q)})
		}
		if selfAt >= 0 {
			nq[selfAt].q = 0
		} else {
			nq = append(nq, quarEntry{id: n.id})
		}
		slices.SortFunc(nq, func(a, b quarEntry) int { return cmp.Compare(a.id, b.id) })
	} else {
		self := false
		for _, e := range newList.Entries() {
			if e.ID == n.id {
				self = true
			}
			nq = append(nq, quarEntry{id: e.ID})
		}
		if !self {
			nq = append(nq, quarEntry{id: n.id})
		}
		slices.SortFunc(nq, func(a, b quarEntry) int { return cmp.Compare(a.id, b.id) })
		nq = slices.CompactFunc(nq, func(a, b quarEntry) bool { return a.id == b.id })
	}
	s.quar = nq
	quarSame := commit(&n.quar, nq)

	// Line 31: the view is the plain-marked nodes with null quarantine.
	nv := s.view[:0]
	for _, e := range newList.Entries() {
		if !e.Mark.Marked() && e.ID != n.id {
			if q, _ := quarGet(n.quar, e.ID); q == 0 {
				nv = append(nv, e.ID)
			}
		}
	}
	nv = append(nv, n.id)
	slices.Sort(nv)
	s.view = nv

	// Line 32: priorities increase only while the node is not in a group.
	// "Not in a group" is read as *hearing nobody*: the clock ages while
	// the node is truly isolated and freezes from its first contact with
	// other nodes (with a one-time Lamport jump past every clock heard, so
	// a late arrival ranks below the nodes already there). The paper
	// freezes only on view membership; freezing already on contact is
	// required for the contests to terminate — a clock that keeps growing
	// during merge negotiation is seen by the far endpoint lagged by up to
	// Dmax relay hops, so two negotiating lone nodes each observe the
	// other as older, both retreat, and the race re-runs forever. Frozen
	// clocks relay without skew and keep every contest's outcome
	// consistent at both ends. The join-order property the paper wants
	// ("the last entered nodes have less priority") is preserved: a
	// member's frozen clock records when it arrived.
	if len(nv) <= 1 {
		switch {
		case len(incs) == 0:
			n.self = n.self.Tick()
		case !n.synced:
			base := n.self.Clock
			for i := range incs {
				for _, r := range incs[i].msg.Recs {
					if r.HasPrio && !r.Prio.IsInfinite() && r.Prio.Clock > base {
						base = r.Prio.Clock
					}
				}
			}
			n.self = priority.P{Clock: base + 1, ID: n.id}
			n.synced = true
		}
	}
	n.storeSelfPrio()

	// Commit: publish the fold out of the builder arena. A round that
	// reproduced the current list keeps the existing allocation (the
	// steady state of every settled group — the commit-time copy happens
	// only when the list actually moved).
	listChanged := !newList.Equal(n.list)
	if listChanged {
		n.list = newList.Publish(n.list, &s.Lists)
	}
	viewChanged := !commit(&n.view, nv)
	if viewChanged {
		n.viewVer++
	}

	// Group priority: the smallest priority of the view's members.
	gp := n.self
	for _, u := range nv {
		if p, ok := n.prioOf(u); ok {
			gp = gp.Min(p)
		}
	}
	n.group = gp

	// Line 5 of the main algorithm: reset msgSet to detect departures.
	// The buffers are truncated with their elements zeroed, so retired
	// broadcasts become collectable while the capacity is kept.
	clear(n.msgSet)
	n.msgSet = n.msgSet[:0]
	clear(incs)

	// Version moves only when the observable state did: every output of
	// BuildMessage, View and List is a pure function of (list, view,
	// quarantine, priority caches, self, group), so an unchanged round —
	// the steady state — leaves the version alone and drivers keep serving
	// their cached broadcast without re-assembling it. Each table was
	// compared at its commit; storeSelfPrio's later write to the priority
	// cache moves exactly when self does.
	versionMoved := listChanged || viewChanged || n.self != oldSelf || n.group != oldGroup ||
		!quarSame || !priosSame || !gprsSame
	if versionMoved {
		n.version++
	}

	// Round-quietness classification, the engine-facing "this round would
	// be a no-op" predicate. A fixpoint round left every input Compute
	// consults untouched — version-covered state, the incompatibility
	// streaks, and the boundary memory (whose emptiness also keeps the
	// round counter out of play: expiry and rejection jitter are its only
	// consumers) — so with an identical inbox the whole function replays
	// itself. A lonely round is the isolated-singleton variant: the inbox
	// was empty and the only motion is the closed-form isolation-clock
	// chain self → prios[self] → group, which SkipLonelyRound reproduces.
	// A held round is the stable-boundary variant: the memory is non-empty
	// but this round neither expired nor renewed any entry, so the counter
	// enters only through the expiry comparisons — the replay stays exact
	// until the earliest expiry (HoldHorizon), which the driver enforces.
	n.quiet = QuietNone
	if !n.streakMoved {
		switch {
		case len(n.rejected) > 0:
			if !versionMoved && !n.rejectedMoved {
				n.quiet = QuietHeld
			}
		case !versionMoved:
			n.quiet = QuietFixpoint
		case emptyInbox && !listChanged && !viewChanged && quarSame && gprsSame &&
			n.self == oldSelf.Tick() && n.group == n.self:
			n.quiet = QuietLonely
		}
	}
	if s.SelfCheck {
		s.scribble()
	}
}

// storeSelfPrio pins the node's own entry in the priority cache.
func (n *Node) storeSelfPrio() {
	for i := range n.prios {
		if n.prios[i].id == n.id {
			n.prios[i].p = n.self
			return
		}
	}
	n.prios = append(n.prios, prec{id: n.id, p: n.self})
	slices.SortFunc(n.prios, func(a, b prec) int { return cmp.Compare(a.id, b.id) })
}

// heardMin folds (id → min q) into the heard scratch.
func heardMin(heard []heardRec, id ident.NodeID, q int32) []heardRec {
	for i := range heard {
		if heard[i].id == id {
			if q < heard[i].q {
				heard[i].q = q
			}
			return heard
		}
	}
	return append(heard, heardRec{id: id, q: q})
}

// heardGet looks id up in the heard scratch.
func heardGet(heard []heardRec, id ident.NodeID) (int32, bool) {
	for i := range heard {
		if heard[i].id == id {
			return heard[i].q, true
		}
	}
	return 0, false
}

// precMap explodes a priority-cache slice into map shape (SelfCheck
// pre-state snapshots and the reference oracle).
func precMap(s []prec) map[ident.NodeID]priority.P {
	out := make(map[ident.NodeID]priority.P, len(s))
	for _, e := range s {
		out[e.id] = e.p
	}
	return out
}

// escalate records one incompatibility observation against sender u and
// returns the replacement for its list: a gentle single-mark singleton
// while the observation streak is below the debounce threshold (transient
// detour-inflated positions during convergence fire false contests; a
// soft ignore does not reset the neighbor's handshake), and the hard
// double-mark cut once the incompatibility persists. The replacement
// lives in b's round arena, as long as the compute that asked for it.
func (n *Node) escalate(b *antlist.Builder, u ident.NodeID) antlist.List {
	c := n.streakOf(u) + 1
	if c < n.cfg.rejectDebounce() {
		n.setStreak(u, c)
		return b.Singleton(ident.Single(u))
	}
	n.setStreak(u, 0)
	n.reject(u)
	return b.Singleton(ident.Double(u))
}

// foreignDepth returns the deepest position in lu holding a plain entry
// that is neither this node nor one of its view members — the q of the
// compatibility bound.
func foreignDepth(n *Node, lu antlist.List) int {
	q := 0
	for i := 0; i < lu.Len(); i++ {
		for _, e := range lu.At(i) {
			if !e.Mark.Marked() && e.ID != n.id && !n.inView(e.ID) {
				q = i
				break
			}
		}
	}
	return q
}

// reject records a double-mark decision against sender u in the boundary
// memory. The hold duration is the configured base plus a deterministic
// jitter derived from (node, neighbor, episode): with a uniform hold,
// every boundary in a symmetric region expires in lockstep, all frontier
// nodes re-probe in the same round, their lists bloat with content from
// several sides at once, everyone re-rejects, and the network cycles
// periodically without ever converging. Staggered expiries let one merge
// consolidate before the next probe arrives.
func (n *Node) reject(u ident.NodeID) {
	hold := n.cfg.boundaryHold()
	if hold == 0 {
		return
	}
	n.rejectedMoved = true
	h := uint64(14695981039346656037)
	for _, x := range [...]uint64{uint64(n.id), uint64(u), n.computes} {
		h = (h ^ x) * 1099511628211
	}
	exp := n.computes + hold + h%(hold+1)
	for i := range n.rejected {
		if n.rejected[i].id == u {
			n.rejected[i].exp = exp
			return
		}
	}
	n.rejected = append(n.rejected, rejEntry{id: u, exp: exp})
}

// cleanReceived applies line 2: delete marked nodes, except a
// *single-marked* self entry — that is the handshake signal ("v or v̄ in
// list.1" makes the list good). A double-marked self entry is a rejection
// by the sender and is deleted too, so that the good-list test fails and
// the rejection is symmetric (Proposition 3's reading: after line 2 the
// double-marked node no longer appears in the list it received).
func (n *Node) cleanReceived(b *antlist.Builder, l antlist.List) antlist.List {
	// Fast path inside Filter: interior nodes of a settled group receive
	// all-plain lists, where the deletion pass keeps everything — and a
	// sender's list is already normalized, so the whole call is the
	// identity. A rejecting pass writes into the builder's round arena
	// (the cleaned list lives exactly one compute), so even boundary
	// traffic cleans without allocating.
	id := n.id
	return b.Filter(l, func(e ident.Entry) bool {
		return !e.Mark.Marked() || (e.ID == id && e.Mark == ident.MarkSingle)
	}).Normalize()
}

// goodList is the test of §4.3: the receiver (plain or single-marked)
// appears among the sender's distance-1 ancestors, the list is not longer
// than Dmax+1, contains no empty set, and is owned by the sender.
func (n *Node) goodList(from ident.NodeID, l antlist.List) bool {
	if l.Len() < 2 || l.Len() > n.cfg.Dmax+1 {
		return false
	}
	if l.Owner() != from || len(l.At(0)) != 1 {
		return false
	}
	if l.HasEmptySet() {
		return false
	}
	return l.At(1).Has(n.id)
}

// safePrefix evaluates the compatibleList test of Proposition 13 and
// returns the deepest prefix of the sender's list that can be folded
// without endangering the content this node must protect. It returns
// (qsafe, true) when at least the sender itself fits (fold positions
// 0..qsafe of its list), and (0, false) when even that would break the
// bound — the genuine incompatibility that cuts a boundary.
//
// Returning a prefix instead of a boolean is how the test stays both
// safe and optimistic (see DESIGN.md §3): the paper's own Function is
// deliberately loose (an OR of two bounds), which admits merges that
// overshoot and must be repaired by contests; a strict bound alone
// instead vetoes legal merges whose members are pairwise close through
// edges the list representation cannot see (a clique under small Dmax
// stalls forever). Folding the provably safe prefix takes the safe part
// now; genuinely close tail nodes arrive later through closer paths.
//
// The protected content p combines two scans:
//   - the deepest current view member in our previous list (the
//     established group);
//   - the deepest plain entry of this computation's partial fold that is
//     absent from the sender's own list (candidates committed from other
//     sides this round — without protecting those, a lone node bridging
//     two far groups absorbs both and is punished by each in turn).
//
// Marked entries and the sender's own echoed content are not ours to
// protect. Only content at depth k ≥ 1 is protected: an overshoot landing
// at the evaluating node itself resolves locally through the too-far
// contest (winner truncates, loser double-marks the cross-border sender),
// which is how concurrent merge races are arbitrated by priorities.
//
// For protected content at depth k, a foreign node at depth l is
// reachable via the border edge (k+1+l hops) or via a witness level i all
// of whose plain entries neighbor the sender (|k-i|+1+l hops), so level i
// supports foreign depth q_i = Dmax - 1 - max_{k in [1..p]} min(k,|k-i|).
func (n *Node) safePrefix(from ident.NodeID, partial antlist.List, lu antlist.List) (int, bool) {
	dmax := n.cfg.Dmax
	p := 0 // deepest protected content
	for i := 0; i < n.list.Len(); i++ {
		for _, e := range n.list.At(i) {
			if !e.Mark.Marked() && n.inView(e.ID) {
				p = i
				break
			}
		}
	}
	for i := p + 1; i < partial.Len(); i++ {
		for _, e := range partial.At(i) {
			if !e.Mark.Marked() && e.ID != n.id && !lu.Has(e.ID) {
				p = i
				break
			}
		}
	}
	if p == 0 {
		// Nothing committed behind us: any contest lands at us and is
		// locally resolvable.
		return lu.Ecc(), true
	}
	b1 := lu.At(1) // the sender's direct neighbors
	maxI := p
	if n.cfg.Compat == CompatNaiveSum {
		maxI = 0
	}
	best := -1
	for i := 0; i <= maxI; i++ {
		// The witness layer keeps plain entries only: the BFS path of a
		// plain member necessarily crosses plain relays (marked entries
		// are never propagated, so nothing sits behind them), and a
		// marked boundary neighbor in our layer must not veto the subset
		// test. The sender itself is excluded too — mid-merge it already
		// appears in our layer 1, and it cannot be required to be its
		// own neighbor. The union of the two layers is streamed in merge
		// order (both are ascending) against b1 instead of being
		// materialized: same entries, same strongest-mark resolution on
		// ID collisions, no per-level set allocation.
		x, y := n.list.At(i), partial.At(i)
		nonEmpty, witness := false, true
		xi, yi, bj := 0, 0, 0
		for xi < len(x) || yi < len(y) {
			var e ident.Entry
			switch {
			case yi >= len(y) || (xi < len(x) && x[xi].ID < y[yi].ID):
				e = x[xi]
				xi++
			case xi >= len(x) || y[yi].ID < x[xi].ID:
				e = y[yi]
				yi++
			default:
				e = ident.Entry{ID: x[xi].ID, Mark: x[xi].Mark.Max(y[yi].Mark)}
				xi, yi = xi+1, yi+1
			}
			if e.Mark.Marked() || e.ID == from {
				continue
			}
			nonEmpty = true
			for bj < len(b1) && b1[bj].ID < e.ID {
				bj++
			}
			if bj >= len(b1) || b1[bj].ID != e.ID {
				witness = false
				break
			}
		}
		if i > 0 && (!nonEmpty || !witness) {
			continue // no witness v' for the shortcut at this level
		}
		worst := 0
		for k := 1; k <= p; k++ {
			d := k
			if abs(k-i) < d {
				d = abs(k - i)
			}
			if d > worst {
				worst = d
			}
		}
		if qi := dmax - 1 - worst; qi > best {
			best = qi
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// farNodeHasPriority decides line 16: does the too-far node w win against
// this node? Inside the same group, node priorities are compared; across
// groups this is a merge conflict and the *groups of the two contested
// endpoints* are compared (that is what breaks loops of groups willing to
// merge consistently at both ends — intermediary nodes' priorities never
// enter), falling back to node priorities when the group priorities tie.
func (n *Node) farNodeHasPriority(w ident.NodeID, incs []incoming) bool {
	wNode := n.lookupPriority(w, incs)
	if n.inView(w) {
		return wNode.Less(n.self)
	}
	wGroup := n.lookupGroupPriority(w, incs).Min(wNode)
	switch {
	case wGroup.Less(n.group):
		return true
	case n.group.Less(wGroup):
		return false
	default:
		return wNode.Less(n.self)
	}
}

// lookupPriority finds the freshest priority known for u. Clocks are
// monotone, so the freshest advertisement is the largest; the local cache
// fills in when no message mentions u this round. The fold is a max, so
// the iteration order over the round's messages is immaterial.
func (n *Node) lookupPriority(u ident.NodeID, incs []incoming) priority.P {
	best, found := priority.Infinite, false
	for i := range incs {
		if r, ok := incs[i].msg.Rec(u); ok && r.HasPrio {
			if !found || best.Less(r.Prio) {
				best, found = r.Prio, true
			}
		}
	}
	if !found {
		if p, ok := n.prioOf(u); ok {
			return p
		}
	}
	return best
}

// lookupGroupPriority finds the freshest known priority of u's group: the
// value relayed by the provider knowing u at the smallest position (the
// shortest witness chain), else the local cache, else Infinite (the caller
// caps it with u's own node priority, which upper-bounds its group's).
// Ties on the position break toward the smallest sender ID — the order
// the former ascending-ID iteration produced implicitly.
func (n *Node) lookupGroupPriority(u ident.NodeID, incs []incoming) priority.P {
	best, bestPos := priority.Infinite, -1
	var bestSid ident.NodeID
	for i := range incs {
		r, ok := incs[i].msg.Rec(u)
		if !ok || !r.HasGroupPrio || r.Pos < 0 {
			continue
		}
		sid := incs[i].msg.From
		if bestPos < 0 || int(r.Pos) < bestPos || (int(r.Pos) == bestPos && sid < bestSid) {
			best, bestPos, bestSid = r.GroupPrio, int(r.Pos), sid
		}
	}
	if bestPos < 0 {
		if p, ok := n.gprOf(u); ok {
			return p
		}
	}
	return best
}

// fold runs lines 24–27: listv ← (v), then ant over the checked incoming
// lists in deterministic order, with hole truncation. The fold composes in
// the builder arena; the result is a view of it.
func (n *Node) fold(b *antlist.Builder, incs []incoming) antlist.List {
	b.Reset(ident.Plain(n.id))
	for i := range incs {
		b.Ant(incs[i].list)
	}
	return holeTruncate(b.View())
}

// holeTruncate cuts a fold at its first empty layer: a hole means no
// witnessed relay exists at that distance (the entries there were all
// marked or deduplicated away), so anything beyond it is unreachable
// garbage, and a list containing an empty set would be rejected wholesale
// by every receiver's goodList anyway. The cut happens once, on final
// folds — inside ⊕ it would break the operator's associativity.
func holeTruncate(l antlist.List) antlist.List {
	for i := 0; i < l.Len(); i++ {
		if len(l.At(i)) == 0 {
			return l.Truncate(i)
		}
	}
	return l
}

// learnPriorities refreshes the local node- and group-priority caches for
// every node of the new list from this round's messages, and prunes
// entries for nodes no longer tracked. Freshness rules matter:
//
//   - A node's clock is monotone non-decreasing (it ticks while alone and
//     freezes in a group), so the freshest advertised node priority is the
//     *largest* one. Taking a minimum would resurrect stale small clocks
//     forever.
//   - Group priorities are not monotone (merges lower them, splits raise
//     them), so "largest" is meaningless; instead the value is taken from
//     the provider that knows the node at the smallest list position — the
//     shortest witness chain back to the node's own authoritative
//     advertisement — with the smallest provider ID as deterministic
//     tie-break. This re-propagates the source's current value along BFS
//     paths every round, so stale values wash out in O(Dmax) computes
//     instead of circulating as poison.
//
// The lookups are flat scans over each sender's record slice, with the
// advertised position carried in the record — the map-based original
// (retained in reference.go as the oracle) probed three maps and
// re-scanned the sender's list for the position on every lookup. The
// caches are rebuilt in the scratch keyed by the new list's node set, which
// replaces the old update-then-prune map walk with appends and one small
// sort; the results report whether each cache stayed as it was (commit).
func (n *Node) learnPriorities(s *Scratch, newList antlist.List, incs []incoming) (priosSame, gprsSame bool) {
	np := s.prios[:0]
	ng := s.gprs[:0]
	selfSeen := false
	for i := 0; i < newList.Len(); i++ {
		for _, e := range newList.At(i) {
			u := e.ID
			// One record lookup per (node, sender) feeds both folds: the
			// node-priority max and the group-priority pick are each
			// order-independent, so fusing the two passes (the former code
			// scanned every sender's records twice per node) changes
			// nothing but the scan count.
			//
			// Node priority: clocks are monotone, the freshest
			// advertisement is the largest; fall back to the previous
			// cache entry when nobody mentioned u this round.
			// Group priority: the provider knowing u at the smallest list
			// position wins (shortest witness chain), smallest sender ID
			// breaking ties.
			best, found := priority.Infinite, false
			bestPos := -1
			var bestSid ident.NodeID
			var gbest priority.P
			for i := range incs {
				r, ok := incs[i].msg.Rec(u)
				if !ok {
					continue
				}
				if r.HasPrio && (!found || best.Less(r.Prio)) {
					best, found = r.Prio, true
				}
				if r.HasGroupPrio && r.Pos >= 0 {
					sid := incs[i].msg.From
					if bestPos < 0 || int(r.Pos) < bestPos || (int(r.Pos) == bestPos && sid < bestSid) {
						bestPos, bestSid, gbest = int(r.Pos), sid, r.GroupPrio
					}
				}
			}
			if u == n.id {
				selfSeen = true
				best, found = n.self, true // the self entry is pinned
			} else if !found {
				best, found = precGet(n.prios, u)
			}
			if found {
				np = append(np, prec{id: u, p: best})
			}
			if bestPos < 0 {
				if g, ok := precGet(n.gprs, u); ok {
					gbest, bestPos = g, 0
				}
			}
			if bestPos >= 0 {
				ng = append(ng, prec{id: u, p: gbest})
			}
		}
	}
	if !selfSeen {
		np = append(np, prec{id: n.id, p: n.self})
		if g, ok := precGet(n.gprs, n.id); ok {
			ng = append(ng, prec{id: n.id, p: g})
		}
	}
	byID := func(a, b prec) int { return cmp.Compare(a.id, b.id) }
	slices.SortFunc(np, byID)
	slices.SortFunc(ng, byID)
	s.prios, s.gprs = np, ng
	return commit(&n.prios, np), commit(&n.gprs, ng)
}

// commit makes *live equal to built, a table rebuilt in the scratch, and
// reports whether it already was: an unchanged table is not even written.
func commit[T comparable](live *[]T, built []T) (same bool) {
	if same = slices.Equal(*live, built); !same {
		*live = append((*live)[:0], built...)
	}
	return same
}

// String summarizes the node for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("%s list=%s view=%v pr=%s gpr=%s", n.id, n.list, n.View(), n.self, n.group)
}

// Compatible evaluates, without side effects, the first-contact
// compatibility decision this node would take for the list lu: the safe
// prefix depth (how deep lu's content may be folded) and whether the
// sender is acceptable at all. It exposes the compatibleList test of
// Proposition 13 for analysis and experiments; Compute applies the same
// logic internally with the round's partial fold.
func (n *Node) Compatible(lu antlist.List) (int, bool) {
	return n.safePrefix(lu.Owner(), antlist.Singleton(ident.Plain(n.id)), lu)
}
