package core

import (
	"slices"

	"repro/internal/antlist"
	"repro/internal/ident"
	"repro/internal/priority"
)

// Message is one GRP broadcast: the sender's ordered list of ancestor
// sets with, for every node appearing in it, that node's priority and the
// priority of its group as known by the sender (the paper sends "listv
// with priorities"; per-entry group priorities are how "group priorities
// are compared" across several hops — see DESIGN.md §3).
//
// The metadata rides in Recs, one flat record per list entry (plus the
// sender itself when a corrupted list omits it), sorted by (ID, Pos): one
// slice per broadcast, scanned on the receive path, with the entry's list
// position inline so receivers never re-scan the list for it. A message and
// what it references are never written while a receiver may read them —
// BuildMessage shares the sender's own list rather than cloning it, drivers
// cache and share messages between computes (see Node.Version), and a
// receiver's buffer holds the delivered *Message itself (ReceiveRef) — but
// only that long: see BuildMessage for when they may be written again.
type Message struct {
	From      ident.NodeID
	GroupPrio priority.P // beside From: 16 B of 4-byte fields, no padding
	List      antlist.List
	Recs      []PrioRec
}

// PrioRec is the per-node metadata record of a Message.
type PrioRec struct {
	ID   ident.NodeID
	Mark ident.Mark
	// HasPrio/HasGroupPrio report whether the sender advertised the
	// corresponding priority. BuildMessage always sets both; decoded
	// frames may carry either half.
	HasPrio      bool
	HasGroupPrio bool
	// Pos is the smallest position at which ID appears in List, or -1
	// when the record's ID is not in the list (the sender's own record on
	// a corrupted list, or map-only records of a decoded frame).
	Pos int16
	// Quar is the remaining quarantine of a not-yet admitted entry, or -1
	// when the sender holds no quarantine record for it.
	Quar      int16
	Prio      priority.P
	GroupPrio priority.P
}

// MaskedDigest returns a 64-bit content hash of the fields of this message
// a receiver's ComputeIn can actually read, when inRead reports which node
// IDs the receiver resolves priority records for. Two messages with equal
// digests are indistinguishable to that receiver, whether they were built
// by BuildMessage or forged by a fault injector, so a field ComputeIn
// comes to read must be folded in here as well.
//
// The engine's fixpoint memo (DESIGN.md §2.3) keys inbox content on this
// projection rather than the raw bytes, because a broadcast routinely
// carries content its receiver provably ignores: a border node re-
// advertises the ticking isolation clock of a commuter it double-marked,
// and every receiver that strips marked entries on arrival
// (cleanReceived) never reads that record's priorities — hashing them
// would make the inbox digest change every round and starve the memo for
// the entire second ring around every mover. The unmasked base must
// cover every field ComputeIn reads regardless of the read set:
//
//   - From is always hashed. The message-level GroupPrio is not: its
//     only reader is Compute's preference sort, and InboxReadDigest
//     pins that sort's *outcome* instead by folding the buffered
//     messages in sorted order — hashing the value itself would let a
//     held lonely neighbor's ticking clock (group priority = own
//     priority when alone) churn the digest every round without ever
//     changing the sort.
//   - the list feeds cleanReceived/goodList/safePrefix and the fold
//     itself, but only ever *through* cleanReceived's deletion pass —
//     nothing reads the raw bytes — so the mask hashes its cleaned
//     projection: marked entries are dropped (except a single-marked
//     receiver entry, the handshake signal; a double-marked receiver
//     entry is a rejection and cleans away like any other mark), while
//     the per-set structure survives so that a set emptied by the
//     deletions still reads as the hole goodList rejects. Hashing raw
//     marks would defeat the memo around every mover: a border node's
//     bookkeeping marks on a commuter it is aging out flap every round
//     with no receiver able to observe the difference. The projection
//     is skipped entirely when dropList is set, which the
//     receiver asserts for senders held in its boundary memory: the
//     rejected-until branch replaces the cleaned list with
//     Singleton(Double(u)) before anything reads it, so the entire list
//     of a held neighbor is dead content (cleanReceived does run on it
//     first, but it is pure and its result is overwritten). The
//     assertion is safe on both memo paths: a stored proof comes from a
//     quiet round, where the expiry filter kept every memory entry (an
//     eviction sets rejectedMoved and the round is not quiet), and a
//     replay runs under Computes() < HoldHorizon(), where the filter
//     keeps them again. Dropping it is what lets a node hold a boundary
//     against a neighbor whose own neighborhood keeps evolving: the
//     neighbor's broadcast churns every round, but none of that churn is
//     readable through an auto-rejected message;
//   - records of untracked nodes are dropped whole under the mask. Their
//     only readers are the two quarantine inheritance passes, and those
//     key the heard-min scratch by the record's own ID — an untracked
//     record can only produce heard entries under an untracked key,
//     which the quarantine rebuild (iterating the fold result, equal to
//     the receiver's own list in any quiet round) never looks up. Every
//     sender is tracked in a proof round (the fold keeps each sender at
//     least marked, and a quiet round reproduces the list), so the
//     sender's own record is never dropped by this rule;
//   - tracked records keep ID, Mark and Pos, which feed the record-
//     lookup scans and the group-priority provider election (smallest
//     Pos wins). Quar is excluded even for them: its only consumer
//     is the inheritance min, which can move a receiver countdown only
//     when that countdown is positive or the entry is fresh — and either
//     one changes the quarantine slice, so the round is not quiet and no
//     memo proof is ever stored for (or keyed to) such a state. In any
//     proof-holding state every tracked quarantine is zero and already
//     known, where max(heard-1, 0) < 0 never fires, whatever was heard —
//     while hashing the raw countdowns would churn the digest for Dmax
//     rounds around every admission;
//   - a record's priority values and Has* flags are only ever read
//     through Rec(u) lookups for nodes u the receiver tracks — its own
//     list plus itself — which is exactly the inRead projection. (The
//     too-far contest reads priorities of untracked nodes, so proofs are
//     never taken from rounds that entered it: Node.RoundOverflowed.)
//
// Record marks of nodes other than the receiver are likewise hashed as
// a marked/plain bit, not as their three-way grade: every read of a
// record mark goes through Mark.Marked() (the quarantine passes and
// safePrefix's Mark.Max merge, which feeds a Marked() filter on the
// very next line), so the grade of a non-self record is unobservable.
//
// Lies and genuine frames hash identically by construction: the digest
// sees only message content, never its provenance.
func (m Message) MaskedDigest(self ident.NodeID, inRead func(ident.NodeID) bool, dropList bool) uint64 {
	h := digSeed
	mix := func(v uint64) { h = digMix(h, v) }
	markOf := func(id ident.NodeID, mk ident.Mark) uint64 {
		if id == self {
			return uint64(mk)
		}
		if mk.Marked() {
			return 1
		}
		return 0
	}
	mix(uint64(m.From))
	if !dropList {
		// Hash the list as cleanReceived's deletion pass would leave it:
		// marked entries dropped except a single-marked receiver, per-set
		// structure kept (an emptied set is the hole goodList rejects).
		// Normalize is a pure function of this projection, and the raw
		// list has no other reader.
		keepEnt := func(e ident.Entry) bool {
			return !e.Mark.Marked() || (e.ID == self && e.Mark == ident.MarkSingle)
		}
		mix(uint64(m.List.Len()))
		for i := 0; i < m.List.Len(); i++ {
			set := m.List.At(i)
			kept := uint64(0)
			for _, e := range set {
				if keepEnt(e) {
					kept++
				}
			}
			mix(kept)
			for _, e := range set {
				if keepEnt(e) {
					mix(uint64(e.ID))
					mix(uint64(e.Mark))
				}
			}
		}
	}
	for _, r := range m.Recs {
		if !inRead(r.ID) {
			continue
		}
		mix(uint64(r.ID))
		mix(markOf(r.ID, r.Mark))
		mix(uint64(uint16(r.Pos)))
		f := uint64(0)
		if r.HasPrio {
			f |= 1
		}
		if r.HasGroupPrio {
			f |= 2
		}
		mix(f)
		mix(r.Prio.Clock())
		mix(uint64(r.Prio.ID))
		mix(r.GroupPrio.Clock())
		mix(uint64(r.GroupPrio.ID))
	}
	return h
}

// digSeed/digMix are the mixing core shared by the content digests
// (Message.MaskedDigest, Node.StateDigest, Node.InboxReadDigest): one 64-bit
// word folded in per call with two multiply–xorshift rounds (the
// splitmix64 finalizer's structure). The digests sit on the engine's
// per-round skip path, so the fold must be cheap and inlinable — the
// byte-wise FNV-1a loop this replaces cost eight multiplies per word
// and, containing a loop, was never inlined into the fold sites.
// Digests are identity helpers for memoization, never security
// boundaries.
const digSeed = uint64(14695981039346656037)

func digMix(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Rec returns the first record for id (the one with the smallest list
// position) and whether one exists. A linear scan over the ascending
// slice beats a binary search at protocol record counts (a handful of
// entries — one group's worth of nodes); the early exit keeps misses
// cheap too.
func (m Message) Rec(id ident.NodeID) (PrioRec, bool) {
	for i := range m.Recs {
		switch {
		case m.Recs[i].ID == id:
			return m.Recs[i], true
		case m.Recs[i].ID > id:
			return PrioRec{}, false
		}
	}
	return PrioRec{}, false
}

// SortRecs orders records by (ID, Pos) — the invariant Rec relies on, which
// whoever assembles a Message (BuildMessageIn, RecsFromMaps, the wire
// decoder) establishes with it.
func SortRecs(recs []PrioRec) {
	slices.SortFunc(recs, func(a, b PrioRec) int {
		switch {
		case a.ID != b.ID:
			if a.ID < b.ID {
				return -1
			}
			return 1
		case a.Pos != b.Pos:
			if a.Pos < b.Pos {
				return -1
			}
			return 1
		default:
			return 0
		}
	})
}

// EncodedSize returns the size the overhead figures (bytes_sent, E11)
// count: sender, group priority, list, 12 bytes per node- or group-priority
// record, 5 per quarantine record. A wire.Encode frame is exactly
// EncodedSize() + 9 + 4·(priority records) bytes: magic, version and the
// three section counts, and each priority record's ID key. Duplicate IDs
// (a corrupted list can repeat a node) count once, as in the frame.
func (m Message) EncodedSize() int {
	nPrio, nGPrio, nQuar := 0, 0, 0
	prev := ident.None
	first := true
	for _, r := range m.Recs {
		if !first && r.ID == prev {
			continue
		}
		first, prev = false, r.ID
		if r.HasPrio {
			nPrio++
		}
		if r.HasGroupPrio {
			nGPrio++
		}
		if r.Quar >= 0 {
			nQuar++
		}
	}
	// from(4) + groupPrio(12) + list + 12 bytes per priority record +
	// 5 bytes per quarantine record.
	return 4 + 12 + m.List.EncodedSize() + 12*nPrio + 12*nGPrio + 5*nQuar
}

// PrioMaps explodes the records into the map shape of the previous
// message representation: node priorities, group priorities, and the
// positive quarantines. The reference oracle and tests consume this; the
// hot path and the wire codec (which reads and writes records directly)
// never do.
func (m Message) PrioMaps() (prios, gprios map[ident.NodeID]priority.P, quars map[ident.NodeID]int) {
	prios = make(map[ident.NodeID]priority.P)
	gprios = make(map[ident.NodeID]priority.P)
	for _, r := range m.Recs {
		if r.HasPrio {
			if _, dup := prios[r.ID]; !dup {
				prios[r.ID] = r.Prio
			}
		}
		if r.HasGroupPrio {
			if _, dup := gprios[r.ID]; !dup {
				gprios[r.ID] = r.GroupPrio
			}
		}
		if r.Quar >= 0 {
			if _, dup := quars[r.ID]; !dup {
				if quars == nil {
					quars = make(map[ident.NodeID]int)
				}
				quars[r.ID] = int(r.Quar)
			}
		}
	}
	return prios, gprios, quars
}

// RecsFromMaps builds the record slice for a message assembled from the
// map shape (fault's forged lies and tests; wire.DecodeInto builds its
// records directly): one record per list entry plus one per map-only ID,
// sorted by (ID, Pos). Quarantine values are clamped to the record range.
func RecsFromMaps(list antlist.List, prios, gprios map[ident.NodeID]priority.P, quars map[ident.NodeID]int) []PrioRec {
	recs := make([]PrioRec, 0, list.NodeCount()+len(prios))
	inList := make(map[ident.NodeID]bool, list.NodeCount())
	for i := 0; i < list.Len(); i++ {
		for _, e := range list.At(i) {
			inList[e.ID] = true
			r := PrioRec{ID: e.ID, Mark: e.Mark, Pos: int16(i), Quar: -1}
			fillFromMaps(&r, prios, gprios, quars)
			recs = append(recs, r)
		}
	}
	addOnly := func(id ident.NodeID) {
		if inList[id] {
			return
		}
		inList[id] = true
		r := PrioRec{ID: id, Pos: -1, Quar: -1}
		fillFromMaps(&r, prios, gprios, quars)
		recs = append(recs, r)
	}
	// Map order is free: each (ID, Pos) is unique, so SortRecs fixes one.
	for id := range prios {
		addOnly(id)
	}
	for id := range gprios {
		addOnly(id)
	}
	for id := range quars {
		addOnly(id)
	}
	SortRecs(recs)
	// Records for a duplicated ID must agree on the smallest position the
	// maps-era code observed via List.Position: they already do, because
	// Rec returns the first (smallest-Pos) record.
	return recs
}

func fillFromMaps(r *PrioRec, prios, gprios map[ident.NodeID]priority.P, quars map[ident.NodeID]int) {
	if p, ok := prios[r.ID]; ok {
		r.HasPrio, r.Prio = true, p
	}
	if g, ok := gprios[r.ID]; ok {
		r.HasGroupPrio, r.GroupPrio = true, g
	}
	if q, ok := quars[r.ID]; ok {
		r.Quar = int16(min(max(q, 0), 32767))
	}
}
