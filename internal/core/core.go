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

// heardRec is one quarantine value heard this round (hearQuarantines).
type heardRec = quarEntry

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
	msgSet   []*Message    // one buffered message per sender (last wins), aliased
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
	rd      round // what one compute's rules hand each other
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
// move it, unlike Version). The one view feed of incremental observers
// (obs.ViewFeed) keys its per-slot entries on it: at steady state every
// compute is a single counter comparison instead of a view re-extraction.
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
	n.SkipQuietRound()
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
	mixP := func(p priority.P) { mix(p.Clock()); mix(uint64(p.ID)) }
	for _, cache := range [2][]prec{n.prios, n.gprs} {
		mix(uint64(len(cache)))
		for i := range cache {
			mix(uint64(cache[i].id))
			mixP(cache[i].p)
		}
	}
	mixP(n.self)
	mixP(n.group)
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
	n.holdBoundary(u, n.computes+holdComputes)
	n.version++
	n.quiet = QuietNone
}

// Receive stores a copy of a neighbor's message (List and Recs aliased, as
// by ReceiveRef). Only the last message per sender is kept (one-message
// channel); self-messages are ignored. The buffer is a small slice scanned
// linearly — sender counts are node degrees, where the scan beats the map
// the seed used.
func (n *Node) Receive(m Message) { n.ReceiveRef(&m) }

// ReceiveRef is Receive without the copy: the buffer keeps m itself, which
// the caller must not write until the node's next Compute or Skip*Round.
// Hot delivery paths (the engine delivers a few hundred thousand receptions
// per tick, each from a long-lived cached broadcast) call this directly.
func (n *Node) ReceiveRef(m *Message) {
	if m.From == n.id || m.From == ident.None {
		return
	}
	for i, b := range n.msgSet {
		if b.From == m.From {
			n.msgSet[i] = m
			return
		}
	}
	n.msgSet = append(n.msgSet, m)
}

// SetInbox hands the node empty storage for its message buffer, one
// pointer a sender: a driver that knows the node's degree reserves it.
func (n *Node) SetInbox(buf []*Message) { n.msgSet = buf[:0] }

// PendingMessages returns how many distinct senders are buffered (used by
// drivers and tests).
func (n *Node) PendingMessages() int { return len(n.msgSet) }

// BuildMessage assembles the broadcast for the Ts timer: the current list
// with the priorities of every node in it and the group priority. The
// result is a pure function of the node's state (see Version), so drivers
// may cache and share it between computes. The list is shared, not cloned:
// a commit that changes it publishes into other storage (Scratch.Lists). A
// receiver aliases List and Recs — and, through ReceiveRef, the message
// header too — until its next Compute or Skip*Round resets its message
// set, and no longer.
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
// may still hold; it allocates only when cap(recs) < RecsNeeded(), and then
// at an even capacity, so one record more still fits when a driver's pool
// hands the array back (DESIGN.md §2.3, The pool).
func (n *Node) BuildMessageIn(recs []PrioRec) Message {
	need := n.RecsNeeded()
	if cap(recs) < need {
		recs = slices.Grow([]PrioRec(nil), (need+1)&^1)
	}
	recs = recs[:0]
	for i := 0; i < n.list.Len(); i++ {
		for _, e := range n.list.At(i) {
			u := e.ID
			r := PrioRec{
				ID: u, Mark: e.Mark, Pos: int16(i), Quar: -1,
				HasPrio: true, HasGroupPrio: true,
			}
			r.Prio, r.GroupPrio = n.self, n.group
			if u != n.id {
				r.Prio = priority.Infinite
				if p, ok := n.prioOf(u); ok {
					r.Prio = p
				}
				if !n.inView(u) {
					r.GroupPrio = r.Prio
					if g, ok := n.gprOf(u); ok {
						r.GroupPrio = g
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
// the buffered message (as n.msgSet points to it) and the list it is folded as.
type incoming struct {
	list antlist.List
	msg  *Message
}

// prefCmp is Compute's stable preference order over received messages:
// view members first (their lists are never subject to the compatibility
// test), then senders by their advertised group priority (oldest first),
// then by ID. The first compatible content a node folds is what it
// commits to for the round, so this order makes every uncommitted node
// side with the *oldest* adjacent group — the greedy accretion the
// maximality proof (Prop. 11) reasons about — instead of a choice that
// can flip between rounds and keep the network in metastable partitions.
// InboxReadDigest folds the buffer in exactly this order —
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
	for _, m := range n.msgSet {
		incs = append(incs, incoming{msg: m})
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
// builder uses the scratch's own. The body is the paper's rules in their
// order, one method each (DESIGN.md §2.1); what one rule hands the next
// is the scratch's round.
func (n *Node) ComputeIn(b *antlist.Builder) {
	s := n.scratch()
	if b == nil {
		b = &s.bld
	}
	r := n.beginRound(s, b)
	n.expireHolds()
	n.checkAndFold(r)
	n.dropTooFar(r)
	n.learnPriorities(s, r)
	n.updateQuarantines(s, r)
	n.extractView(s, r)
	n.ageClock(r)
	n.commitRound(s, r)
	n.classifyRound(r)
	if s.SelfCheck {
		s.scribble()
	}
}

// round is what one compute hands from rule to rule. It lives in the
// Scratch, so nothing is allocated for it, and beginRound writes every
// field before any rule reads one.
type round struct {
	b                 *antlist.Builder // the fold arena
	incs              []incoming       // the inbox in preference order, with each sender's checked list
	newList           antlist.List     // the fold (lines 10–29), in b's arena until commitRound publishes it
	view              []ident.NodeID   // line 31's new view, ascending
	oldSelf, oldGroup priority.P
	emptyInbox        bool
	// Whether each table stayed as it was at its commit, and what moved.
	quarSame, priosSame, gprsSame, listChanged, viewChanged, versionMoved bool
}

// beginRound opens a compute: it advances the round counter, clears the
// round's motion flags and writes every field of the scratch's round —
// the inbox in preference order (prefCmp), the pre-round priorities and
// whether the inbox was empty.
func (n *Node) beginRound(s *Scratch, b *antlist.Builder) *round {
	n.computes++
	n.streakMoved, n.overflowed = false, false
	s.rd = round{b: b, incs: n.sortedInbox(s), oldSelf: n.self, oldGroup: n.group, emptyInbox: len(n.msgSet) == 0}
	return &s.rd
}

// expireHolds drops the boundary-memory entries whose hold has run out
// (the memory is this reproduction's addition, DESIGN.md §3). Input: the
// advanced round counter. Output: n.rejected filtered in place, and
// rejectedMoved, whether an entry went. Invariant: empty at the steady
// state of an interior node, unchanged under an active hold at a group
// boundary.
func (n *Node) expireHolds() {
	kept := n.rejected[:0]
	for _, r := range n.rejected {
		if n.computes <= r.exp {
			kept = append(kept, r)
		}
	}
	n.rejectedMoved = len(kept) != len(n.rejected)
	n.rejected = kept
}

// checkAndFold runs lines 1–13: each received list is cleaned (line 2),
// checked and folded, sender by sender in preference order. A sender in
// the boundary memory counts as double-marked; a bad list (line 4) is
// ignored but its sender kept, single-marked, with its streak left alone;
// a view member, or a sender whose list the compatibility test admits,
// resets its streak; any other sender is line 7's incompatible neighbour,
// after the debounce (escalate). Input: r.incs. Output: r.incs[i].list,
// each sender's checked list, and r.newList, their hole-truncated fold.
// Invariant: each compatibility test sees the partial fold of the senders
// checked before it, so content committed from earlier senders is
// protected against later incompatible ones — a lone node bridging two
// far-apart groups sides with one instead of absorbing both and being
// punished by each in turn. The fold itself (⊕) is order-independent.
func (n *Node) checkAndFold(r *round) {
	b := r.b
	b.BeginRound(ident.Plain(n.id))
	for i := range r.incs {
		u := r.incs[i].msg.From
		lu := n.cleanReceived(b, r.incs[i].msg.List)
		switch {
		case n.rejectedUntil(u) != 0:
			lu = b.Singleton(ident.Double(u))
		case !n.goodList(u, lu):
			lu = b.Singleton(ident.Single(u))
		case n.inView(u) || n.admits(b.View(), lu):
			n.setStreak(u, 0)
		default:
			lu = n.escalate(b, u)
		}
		r.incs[i].list = lu
		b.Ant(lu)
	}
	r.newList = holeTruncate(b.View())
}

// dropTooFar runs lines 14–29 when the fold reaches past Dmax+1
// positions: for each plain too-far node w that has the priority
// (farNodeHasPriority), every neighbour that provided w at position Dmax
// is ignored (line 19, after the debounce), the checked lists are folded
// again, and the too-far nodes that remain, which did not have the
// priority, are cut (line 28). Input: r.incs and r.newList. Output: the
// same, rewritten, and overflowed set. Invariant: r.newList holds at most
// Dmax+1 positions.
func (n *Node) dropTooFar(r *round) {
	dmax := n.cfg.Dmax
	if r.newList.Len() <= dmax+1 {
		return
	}
	n.overflowed = true
	for _, w := range r.newList.At(dmax + 1) {
		if w.Mark.Marked() || !n.farNodeHasPriority(w.ID, r.incs) {
			continue
		}
		for i := range r.incs {
			if pos, _ := r.incs[i].list.Position(w.ID); pos == dmax {
				r.incs[i].list = n.escalate(r.b, r.incs[i].msg.From)
			}
		}
	}
	r.newList = n.fold(r.b, r.incs).Truncate(dmax + 1)
}

// updateQuarantines runs line 30. A node's countdown starts at Dmax when
// it first appears plain (marked entries are not propagated, so the group
// learns of a newcomer only from then on) and drops by one a round, or to
// one below the smallest value heard for it (hearQuarantines), so that
// both ends reach 0 in the same round. DisableQuarantine admits every
// listed node at once. Input: r.newList, r.incs. Output: n.quar committed
// from s.quar, and r.quarSame. Invariant: ascending by ID, one entry a
// node, the node's own entry at 0.
func (n *Node) updateQuarantines(s *Scratch, r *round) {
	nq := s.quar[:0]
	if n.cfg.DisableQuarantine {
		for _, e := range r.newList.Entries() {
			nq = append(nq, quarEntry{id: e.ID})
		}
	} else {
		heard := n.hearQuarantines(s, r.incs)
		for _, e := range r.newList.Entries() {
			if !e.Mark.Marked() {
				nq = append(nq, quarEntry{id: e.ID, q: n.countdown(e.ID, heard)})
			}
		}
	}
	if i := slices.IndexFunc(nq, func(e quarEntry) bool { return e.id == n.id }); i >= 0 {
		nq[i].q = 0
	} else {
		nq = append(nq, quarEntry{id: n.id})
	}
	slices.SortFunc(nq, func(a, b quarEntry) int { return cmp.Compare(a.id, b.id) })
	s.quar = slices.CompactFunc(nq, func(a, b quarEntry) bool { return a.id == b.id })
	r.quarSame = commit(&n.quar, s.quar)
}

// hearQuarantines collects, in s.heard, the smallest remaining quarantine
// heard per node this round (inheritance; see the Quar record), plus the
// reverse direction: when a sender's message says *our* remaining
// quarantine is k, the join completes in k rounds, so our own countdown
// for the sender's already-admitted members (entries it lists without a
// quarantine) syncs to the same k and both sides' views flip in the same
// round. The fold is a min, so the order of the senders does not matter.
func (n *Node) hearQuarantines(s *Scratch, incs []incoming) []heardRec {
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
				if r.Pos >= 0 && !r.Mark.Marked() && r.ID != n.id && r.Quar < 0 {
					heard = heardMin(heard, r.ID, selfQ)
				}
			}
		}
	}
	s.heard = heard
	return heard
}

// countdown is line 30 for one plain node u of the new list: Dmax when u
// is new, else one less than its last value (down to 0), lowered to h-1
// when h was heard for it — the heard value was sampled before the peer's
// own decrement this round, so both countdowns hit zero together.
func (n *Node) countdown(u ident.NodeID, heard []heardRec) int32 {
	q, known := quarGet(n.quar, u)
	if !known {
		q = n.cfg.Dmax
	} else if q > 0 {
		q--
	}
	if h, ok := heardGet(heard, u); ok && int(h)-1 < q {
		q = max(int(h)-1, 0)
	}
	return int32(q)
}

// extractView runs line 31: the view is the node itself and the plain
// nodes of the new list whose quarantine is 0. Input: r.newList and the
// committed n.quar. Output: r.view, built in s.view. Invariant:
// ascending, and it holds the node.
func (n *Node) extractView(s *Scratch, r *round) {
	nv := s.view[:0]
	for _, e := range r.newList.Entries() {
		if !e.Mark.Marked() && e.ID != n.id {
			if q, _ := quarGet(n.quar, e.ID); q == 0 {
				nv = append(nv, e.ID)
			}
		}
	}
	nv = append(nv, n.id)
	slices.Sort(nv)
	s.view, r.view = nv, nv
}

// ageClock runs line 32: priorities increase only while the node is not
// in a group, read as *hearing nobody*. The clock ticks while the node is
// alone in its view with an empty inbox, and freezes from its first
// contact, with a one-time Lamport jump past every clock heard so that a
// late arrival ranks below the nodes already there. The paper freezes
// only on view membership; freezing on contact is what lets the contests
// terminate — a clock that grows during merge negotiation is seen by the
// far endpoint lagged by up to Dmax relay hops, so two negotiating lone
// nodes each see the other as older, both retreat, and the race re-runs
// forever. The join order the paper wants ("the last entered nodes have
// less priority") holds: a member's frozen clock records when it arrived.
// Input: r.view, r.incs. Output: n.self, and its pinned cache entry.
// Invariant: the clock moves only while the view is the node alone — a
// tick when it heard nobody, one jump at its first contact.
func (n *Node) ageClock(r *round) {
	if len(r.view) <= 1 {
		switch {
		case len(r.incs) == 0:
			n.self = n.self.Tick()
		case !n.synced:
			base := n.self.Clock()
			for i := range r.incs {
				for _, p := range r.incs[i].msg.Recs {
					if p.HasPrio && !p.Prio.IsInfinite() && p.Prio.Clock() > base {
						base = p.Prio.Clock()
					}
				}
			}
			n.self = priority.Of(base+1, n.id)
			n.synced = true
		}
	}
	n.storeSelfPrio()
}

// commitRound publishes the round: the fold leaves the builder arena only
// when it differs from the current list (a settled group's steady state
// keeps its allocation), the view and its version, and the group priority,
// the smallest priority of the view's members. Line 5 of the main
// algorithm then resets the message buffer to detect departures: the
// buffers are truncated with their elements zeroed, so retired broadcasts
// become collectable while the capacity is kept. Output: r.listChanged,
// r.viewChanged and r.versionMoved. Invariant: Version moves exactly when
// the observable state did — BuildMessage, View and List are pure
// functions of (list, view, quarantine, priority caches, self, group),
// each table was compared at its commit, and storeSelfPrio's write to the
// priority cache moves exactly when self does — so drivers keep serving
// their cached broadcast through an unchanged round.
func (n *Node) commitRound(s *Scratch, r *round) {
	if r.listChanged = !r.newList.Equal(n.list); r.listChanged {
		n.list = r.newList.Publish(n.list, &s.Lists)
	}
	if r.viewChanged = !commit(&n.view, r.view); r.viewChanged {
		n.viewVer++
	}
	gp := n.self
	for _, u := range r.view {
		if p, ok := n.prioOf(u); ok {
			gp = gp.Min(p)
		}
	}
	n.group = gp
	clear(n.msgSet)
	n.msgSet = n.msgSet[:0]
	clear(r.incs)
	r.versionMoved = r.listChanged || r.viewChanged || n.self != r.oldSelf || n.group != r.oldGroup ||
		!r.quarSame || !r.priosSame || !r.gprsSame
	if r.versionMoved {
		n.version++
	}
}

// classifyRound sets the round's quietness, the engine-facing "this round
// would be a no-op" predicate. A fixpoint round left every input Compute
// consults untouched — version-covered state, the incompatibility
// streaks, and the boundary memory, whose emptiness also keeps the round
// counter out of play (expiry and rejection jitter are its only
// consumers) — so with an identical inbox the whole compute replays
// itself. A lonely round is the isolated-singleton variant: the inbox was
// empty and the only motion is the closed-form isolation-clock chain self
// → prios[self] → group, which SkipLonelyRound reproduces. A held round is
// the stable-boundary variant: the memory is non-empty but this round
// neither expired nor renewed any entry, so the counter enters only
// through the expiry comparisons and the replay stays exact until the
// earliest expiry (HoldHorizon), which the driver enforces. Input: the
// round's motion flags. Output: n.quiet, which licenses only that replay.
func (n *Node) classifyRound(r *round) {
	n.quiet = QuietNone
	if n.streakMoved {
		return
	}
	switch {
	case len(n.rejected) > 0:
		if !r.versionMoved && !n.rejectedMoved {
			n.quiet = QuietHeld
		}
	case !r.versionMoved:
		n.quiet = QuietFixpoint
	case r.emptyInbox && !r.listChanged && !r.viewChanged && r.quarSame && r.gprsSame &&
		n.self == r.oldSelf.Tick() && n.group == n.self:
		n.quiet = QuietLonely
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
	slices.SortFunc(n.prios, precByID)
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

// admits is the compatibility test line 7 acts on, for the good list lu of
// a sender outside the view against the round's partial fold: the safe
// prefix must reach lu's foreign depth.
func (n *Node) admits(partial, lu antlist.List) bool {
	qsafe, ok := n.safePrefix(lu.Owner(), partial, lu)
	return ok && qsafe >= n.foreignDepth(lu)
}

// foreignDepth is the deepest position of lu holding a plain entry that is
// neither this node nor one of its view members (0 when there is none).
func (n *Node) foreignDepth(lu antlist.List) (q int) {
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
	n.holdBoundary(u, n.computes+hold+h%(hold+1))
}

// holdBoundary sets u's boundary-memory entry to expire after compute
// exp, replacing any earlier one.
func (n *Node) holdBoundary(u ident.NodeID, exp uint64) {
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
			worst = max(worst, min(k, max(k-i, i-k)))
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

// farNodeHasPriority decides line 16: does the too-far node w win against
// this node? Inside the same group, node priorities are compared; across
// groups this is a merge conflict and the *groups of the two contested
// endpoints* are compared (that is what breaks loops of groups willing to
// merge consistently at both ends — intermediary nodes' priorities never
// enter), falling back to node priorities when the group priorities tie.
// w's node priority caps its group's (an unknown one is Infinite).
func (n *Node) farNodeHasPriority(w ident.NodeID, incs []incoming) bool {
	wNode, wGroup, _, _ := n.elect(w, incs)
	if n.inView(w) {
		return wNode.Less(n.self)
	}
	wGroup = wGroup.Min(wNode)
	switch {
	case wGroup.Less(n.group):
		return true
	case n.group.Less(wGroup):
		return false
	default:
		return wNode.Less(n.self)
	}
}

// elect returns the node and group priorities this round elects for u,
// and whether each is known; an unknown one is Infinite. Freshness rules
// matter:
//
//   - A node's clock is monotone non-decreasing (it ticks while alone and
//     freezes in a group), so the freshest advertised node priority is the
//     *largest* one. Taking a minimum would resurrect stale small clocks
//     forever.
//   - Group priorities are not monotone (merges lower them, splits raise
//     them), so "largest" is meaningless; instead the value is taken from
//     the provider that knows u at the smallest list position — the
//     shortest witness chain back to u's own authoritative advertisement —
//     with the smallest provider ID as deterministic tie-break. This
//     re-propagates the source's current value along BFS paths every
//     round, so stale values wash out in O(Dmax) computes instead of
//     circulating as poison.
//
// One record lookup per sender feeds both order-independent elections.
// The previous round's cache fills in what no message advertises:
// learnPriorities commits only after the round's last election.
func (n *Node) elect(u ident.NodeID, incs []incoming) (node, group priority.P, nodeOK, groupOK bool) {
	node, group = priority.Infinite, priority.Infinite
	bestPos := int16(-1)
	var bestSid ident.NodeID
	for i := range incs {
		r, ok := incs[i].msg.Rec(u)
		if !ok {
			continue
		}
		if r.HasPrio && (!nodeOK || node.Less(r.Prio)) {
			node, nodeOK = r.Prio, true
		}
		if r.HasGroupPrio && r.Pos >= 0 {
			sid := incs[i].msg.From
			if bestPos < 0 || r.Pos < bestPos || (r.Pos == bestPos && sid < bestSid) {
				group, bestPos, bestSid = r.GroupPrio, r.Pos, sid
			}
		}
	}
	if !nodeOK {
		if p, ok := n.prioOf(u); ok {
			node, nodeOK = p, true
		}
	}
	groupOK = bestPos >= 0
	if !groupOK {
		if g, ok := n.gprOf(u); ok {
			group, groupOK = g, true
		}
	}
	return node, group, nodeOK, groupOK
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

// learnPriorities runs between lines 29 and 30 (how priorities travel,
// the paper leaves open; DESIGN.md §3): it refreshes the node- and
// group-priority caches for every node of the new list with this round's
// elections (elect) and prunes nodes no longer tracked. Input: r.newList,
// r.incs. Output: n.prios and n.gprs, rebuilt in the scratch keyed by the
// new list's node set, sorted once and committed, and r.priosSame,
// r.gprsSame. Invariant: the self entry is the node's own priority. Under
// SelfCheck the map-based original (reference.go) replays it as the oracle.
func (n *Node) learnPriorities(s *Scratch, r *round) {
	var refPrios, refGprs map[ident.NodeID]priority.P
	if s.SelfCheck {
		refPrios, refGprs = precMap(n.prios), precMap(n.gprs)
	}
	np := s.prios[:0]
	ng := s.gprs[:0]
	selfSeen := false
	for _, e := range r.newList.Entries() {
		u := e.ID
		p, g, pok, gok := n.elect(u, r.incs)
		if u == n.id {
			selfSeen = true
			p, pok = n.self, true
		}
		if pok {
			np = append(np, prec{id: u, p: p})
		}
		if gok {
			ng = append(ng, prec{id: u, p: g})
		}
	}
	if !selfSeen {
		np = append(np, prec{id: n.id, p: n.self})
		if g, ok := precGet(n.gprs, n.id); ok {
			ng = append(ng, prec{id: n.id, p: g})
		}
	}
	slices.SortFunc(np, precByID)
	slices.SortFunc(ng, precByID)
	s.prios, s.gprs = np, ng
	r.priosSame, r.gprsSame = commit(&n.prios, np), commit(&n.gprs, ng)
	if s.SelfCheck {
		n.checkRefLearnPriorities(r.newList, r.incs, refPrios, refGprs)
	}
}

// precByID orders a priority cache by node ID.
func precByID(a, b prec) int { return cmp.Compare(a.id, b.id) }

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

// Compatible evaluates, without side effects, the first-contact admission
// this node would take for the list lu of a sender outside its view, with
// nothing else folded: Compute's compatibility test (admits) must pass,
// and lu's foreign depth must land within Dmax, or the too-far contest
// truncates it. It exposes the admission for analysis and experiments.
func (n *Node) Compatible(lu antlist.List) bool {
	return n.admits(antlist.Singleton(ident.Plain(n.id)), lu) && n.foreignDepth(lu) < n.cfg.Dmax
}
