package antlist

import (
	"slices"

	"repro/internal/ident"
)

// List is an ordered list of ancestor sets (a0, a1, ..., ap). Position i
// holds the nodes believed to be at distance i from the owner; a0 is the
// owner singleton. The zero value is the empty list (malformed; real lists
// always have at least a0).
//
// The representation is flat: one contiguous entry arena in position-major
// order plus a set-offset slice (position i is ents[offs[i]:offs[i+1]]).
// Compared to the previous slice-of-sets form this makes every whole-list
// walk one linear scan, lets Truncate and tail-trimming reslice instead of
// copy, and lets the fold run entirely inside a recycled Builder arena with
// a single commit-time copy (see Builder). A list is not written while a
// receiver holds it (its entries may be published into again after: see
// Store); At returns zero-copy views. The pre-arena nested form and
// its operators are retained verbatim in reference.go (RefList) as the
// differential oracle the Builder is fuzzed against.
type List struct {
	ents []ident.Entry
	offs []int32 // len 0 (empty list) or Len()+1; offs[0] == 0 always
}

// singletonOffs is the shared offset slice of every one-position list.
// Offset slices are never mutated, so all singletons alias it.
var singletonOffs = []int32{0, 1}

// Singleton returns the one-element list (id), i.e. a freshly reset owner
// list, with the given mark on the entry. The paper writes (u) for a
// single-marked kept sender and (u̿) for a double-marked incompatible one.
func Singleton(e ident.Entry) List { return SingletonOver([]ident.Entry{e}) }

// SingletonOver is Singleton over the caller's storage: the entry is
// buf[0], and the list's capacity stops there, so a slab that buf was cut
// from is never the list's to write beyond its own entry.
func SingletonOver(buf []ident.Entry) List {
	return List{ents: buf[:1:1], offs: singletonOffs}
}

// FromSets builds a list from nested position sets (the construction shape
// of tests and workload corruption; sets are copied into a fresh arena).
// No invariant is enforced beyond each Set's own (sorted, unique IDs).
func FromSets(sets ...Set) List {
	if len(sets) == 0 {
		return List{}
	}
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	l := List{
		ents: make([]ident.Entry, 0, total),
		offs: make([]int32, 1, len(sets)+1),
	}
	for _, s := range sets {
		l.ents = append(l.ents, s...)
		l.offs = append(l.offs, int32(len(l.ents)))
	}
	return l
}

// Len returns the number of ancestor sets (s(list) in the paper's footnote:
// number of elements). The last index — the paper's alternative reading of
// s(), used by Prop. 13 — is Len()-1; see Ecc.
func (l List) Len() int {
	if len(l.offs) == 0 {
		return 0
	}
	return len(l.offs) - 1
}

// Ecc returns the eccentricity encoded by the list: the index of the last
// ancestor set (p for a list (a0..ap)), or -1 for an empty list.
func (l List) Ecc() int { return l.Len() - 1 }

// At returns the set at position i (list.i in the paper) as a zero-copy
// read-only view of the arena, or nil if out of range.
func (l List) At(i int) Set {
	if i < 0 || i >= l.Len() {
		return nil
	}
	return Set(l.ents[l.offs[i]:l.offs[i+1]])
}

// Entries returns the whole arena — every entry in position-major order,
// ascending by ID within a position — as a read-only view. Whole-list
// consumers (view extraction, quarantine rebuild, the codec) iterate it
// flat instead of walking positions.
func (l List) Entries() []ident.Entry { return l.ents }

// Owner returns the node at position 0, or ident.None for malformed lists.
func (l List) Owner() ident.NodeID {
	if l.Len() == 0 || l.offs[1] == 0 {
		return ident.None
	}
	return l.ents[0].ID
}

// Clone returns a deep copy of the list, detached from any shared arena.
func (l List) Clone() List { return l.Publish(List{}, nil) }

// Store is where Publish puts a list. Offsets are interned per shape and
// never written again, so lists share them freely (like singletonOffs);
// entries go into storage Take vouches nothing reads any more. The zero
// value interns and allocates, a nil Store only allocates; one goroutine
// at a time.
type Store struct {
	// Take returns entry storage of capacity ≥ need no reader holds, or nil.
	Take   func(need int) []ident.Entry
	shapes map[uint64][][]int32 // interned offsets by hash
}

// intern returns the store's one copy of offs.
func (s *Store) intern(offs []int32) []int32 {
	if s == nil {
		return slices.Clone(offs)
	}
	h := uint64(len(offs))
	for _, o := range offs {
		h = (h ^ uint64(o)) * 1099511628211
	}
	for _, o := range s.shapes[h] {
		if slices.Equal(o, offs) {
			return o
		}
	}
	if s.shapes == nil {
		s.shapes = make(map[uint64][][]int32)
	}
	offs = slices.Clone(offs)
	s.shapes[h] = append(s.shapes[h], offs)
	return offs
}

// Publish returns a list with the receiver's content, detached from any
// Builder arena and not written while a receiver may hold it: prev itself
// when the content is identical (so unchanged rounds keep sharing one
// allocation), else a copy of the entries, in st's storage if it has some,
// over prev's offsets when the shape is prev's and st's interned ones when
// it is not.
func (l List) Publish(prev List, st *Store) List {
	if l.Len() == 0 {
		return List{}
	}
	offs := prev.offs
	if !slices.Equal(l.offs, offs) {
		offs = st.intern(l.offs)
	} else if slices.Equal(l.ents, prev.ents) {
		return prev
	}
	var ents []ident.Entry
	if st != nil && st.Take != nil {
		ents = st.Take(len(l.ents))
	}
	return List{ents: append(ents[:0], l.ents...), offs: offs}
}

// Position returns the smallest position at which id appears and the entry
// there, or (-1, zero) if absent.
func (l List) Position(id ident.NodeID) (int, ident.Entry) {
	for i := 0; i < l.Len(); i++ {
		for _, e := range l.ents[l.offs[i]:l.offs[i+1]] {
			if e.ID == id {
				return i, e
			}
		}
	}
	return -1, ident.Entry{}
}

// Has reports whether id appears anywhere in the list, with any mark.
func (l List) Has(id ident.NodeID) bool {
	for _, e := range l.ents {
		if e.ID == id {
			return true
		}
	}
	return false
}

// IDs returns all node IDs in the list, position by position, ascending
// within a position.
func (l List) IDs() []ident.NodeID {
	if len(l.ents) == 0 {
		return nil
	}
	out := make([]ident.NodeID, len(l.ents))
	for i, e := range l.ents {
		out[i] = e.ID
	}
	return out
}

// NodeCount returns the total number of entries across all positions.
func (l List) NodeCount() int { return len(l.ents) }

// HasEmptySet reports whether any position holds an empty set (a malformed
// list per the goodList test).
func (l List) HasEmptySet() bool {
	for i := 1; i < len(l.offs); i++ {
		if l.offs[i] == l.offs[i-1] {
			return true
		}
	}
	return false
}

// Truncate returns the list cut to at most n positions (keeping a0..a(n-1)),
// then normalized. Used by compute() line 28 to drop too-far ancestors.
// The cut is a reslice of the arena, not a copy.
func (l List) Truncate(n int) List {
	if l.Len() <= n {
		return l
	}
	if n <= 0 {
		return List{}
	}
	return List{ents: l.ents[:l.offs[n]], offs: l.offs[:n+1]}.Normalize()
}

// prefixHas reports whether id appears before arena offset end.
func (l List) prefixHas(id ident.NodeID, end int32) bool {
	for _, e := range l.ents[:end] {
		if e.ID == id {
			return true
		}
	}
	return false
}

// Normalize enforces the List invariants:
//   - each node appears only at its smallest position (strongest mark wins
//     at that position, resolved by Set.Union during merges);
//   - trailing empty sets are trimmed.
//
// Intermediate empty sets are kept in place: they can arise from corrupted
// initial states or mark deletion, and removing or truncating them would
// break the associativity of ⊕ (positions are distances; they must not
// shift). The protocol handles them at reception instead — goodList rejects
// any list containing an empty set, exactly as the paper specifies.
//
// Clean lists — every steady-state cleaning pass — return the receiver
// itself, merely resliced past any empty tail. Small lists (one group's
// worth of nodes, the overwhelmingly common case) use an allocation-free
// quadratic prefix scan over the flat arena; past 32 entries — decoded
// hostile frames, corrupted initial states — a seen-map pass keeps the
// cost linear, exactly like the pre-arena implementation (RefList).
func (l List) Normalize() List {
	if len(l.ents) > 32 {
		return l.normalizeLarge()
	}
	for i := 1; i < l.Len(); i++ {
		for _, e := range l.ents[l.offs[i]:l.offs[i+1]] {
			if l.prefixHas(e.ID, l.offs[i]) {
				return l.normalizeSlow()
			}
		}
	}
	return trimTail(l)
}

// normalizeSlow rebuilds the list with cross-position duplicates dropped
// (first occurrence kept, with the mark it has there) — the small-list
// path, quadratic but allocation-bounded.
func (l List) normalizeSlow() List {
	out := List{
		ents: make([]ident.Entry, 0, len(l.ents)),
		offs: make([]int32, 1, len(l.offs)),
	}
	for i := 0; i < l.Len(); i++ {
		for _, e := range l.ents[l.offs[i]:l.offs[i+1]] {
			if !out.Has(e.ID) {
				out.ents = append(out.ents, e)
			}
		}
		out.offs = append(out.offs, int32(len(out.ents)))
	}
	return trimTail(out)
}

// normalizeLarge is Normalize for lists past the small-list bound: one
// map pass detects duplicates, a second rebuilds if needed — O(n) where
// the prefix scan would be O(n²) on a hostile 10⁴-entry frame.
func (l List) normalizeLarge() List {
	seen := make(map[ident.NodeID]bool, len(l.ents))
	dirty := false
	for _, e := range l.ents {
		if seen[e.ID] {
			dirty = true
			break
		}
		seen[e.ID] = true
	}
	if !dirty {
		return trimTail(l)
	}
	clear(seen)
	out := List{
		ents: make([]ident.Entry, 0, len(l.ents)),
		offs: make([]int32, 1, len(l.offs)),
	}
	for i := 0; i < l.Len(); i++ {
		for _, e := range l.ents[l.offs[i]:l.offs[i+1]] {
			if !seen[e.ID] {
				seen[e.ID] = true
				out.ents = append(out.ents, e)
			}
		}
		out.offs = append(out.offs, int32(len(out.ents)))
	}
	return trimTail(out)
}

// trimTail drops trailing empty sets (by reslicing — the backing array is
// shared, which is safe as neither list is written), mapping the all-empty list
// to the zero List.
func trimTail(l List) List {
	n := l.Len()
	for n > 0 && l.offs[n] == l.offs[n-1] {
		n--
	}
	if n == 0 {
		return List{}
	}
	return List{ents: l.ents[:l.offs[n]], offs: l.offs[:n+1]}
}

// Merge is the ⊕ operator: position-wise union followed by normalization
// (each node kept only at its smallest position, empty tail trimmed).
// Cold-path convenience over the Builder; the fold uses a recycled Builder
// directly.
func (l List) Merge(o List) List {
	var b Builder
	b.Load(l)
	b.Merge(o)
	return b.View().Clone()
}

// Ant is the r-operator ant(l, o) = l ⊕ r(o): fold a neighbor's list into
// the local one, at one hop more — r, which prepends an empty set and so
// pushes every ancestor one hop farther, applied as an index offset of the
// merge instead of a materialized shifted copy. Cold-path convenience; the
// per-compute fold runs on a recycled Builder (see Builder.Ant).
func (l List) Ant(o List) List {
	var b Builder
	b.Load(l)
	b.Ant(o)
	return b.View().Clone()
}

// Equal reports whether two lists are identical (positions, IDs and marks).
// Only positions 1..Len are compared — a zero-position list may carry
// offs of length 0 or 1 (the zero List vs a decoded empty frame), and the
// two must compare equal both ways.
func (l List) Equal(o List) bool {
	if l.Len() != o.Len() || len(l.ents) != len(o.ents) {
		return false
	}
	for i := 1; i <= l.Len(); i++ {
		if l.offs[i] != o.offs[i] {
			return false
		}
	}
	for i := range l.ents {
		if l.ents[i] != o.ents[i] {
			return false
		}
	}
	return true
}

// String renders the list as ({n1},{n2,n3'},...).
func (l List) String() string { return string(l.AppendString(nil)) }

// AppendString appends what String returns to b.
func (l List) AppendString(b []byte) []byte {
	b = append(b, '(')
	for i := 0; i < l.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = l.At(i).AppendString(b)
	}
	return append(b, ')')
}
