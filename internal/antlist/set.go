// Package antlist implements ordered lists of ancestor sets and the
// strictly idempotent r-operator "ant" of Ducourthial et al.
//
// A List is (a0, a1, ..., ap) where ai is the set of nodes at distance i
// from the list's owner (a0 = {owner}) and p is the distance of the
// farthest known ancestor. Lists are combined with
//
//	ant(l1, l2) = l1 ⊕ r(l2)
//
// where r prepends an empty set (shifting every ancestor one hop farther)
// and ⊕ merges position-wise while keeping each node only at its smallest
// position. Iterated from the neighbors' lists, ant computes exact BFS
// layers, which is the self-stabilizing static task the protocol builds on.
package antlist

import (
	"sort"

	"repro/internal/ident"
)

// Set is one ancestor set: entries sorted by NodeID, each ID at most once.
// The zero value is an empty set.
type Set []ident.Entry

// NewSet builds a set from entries, deduplicating IDs (strongest mark wins)
// and sorting by ID.
func NewSet(entries ...ident.Entry) Set {
	var s Set
	for _, e := range entries {
		s = s.Add(e)
	}
	return s
}

// Add returns the set with e inserted. If e.ID is already present the
// strongest mark wins. The receiver is not modified.
func (s Set) Add(e ident.Entry) Set {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= e.ID })
	if i < len(s) && s[i].ID == e.ID {
		out := make(Set, len(s))
		copy(out, s)
		out[i].Mark = out[i].Mark.Max(e.Mark)
		return out
	}
	out := make(Set, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, e)
	out = append(out, s[i:]...)
	return out
}

// Has reports whether id is present (with any mark).
func (s Set) Has(id ident.NodeID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= id })
	return i < len(s) && s[i].ID == id
}

// Get returns the entry for id and whether it is present.
func (s Set) Get(id ident.NodeID) (ident.Entry, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= id })
	if i < len(s) && s[i].ID == id {
		return s[i], true
	}
	return ident.Entry{}, false
}

// Remove returns the set without id. The receiver is not modified.
func (s Set) Remove(id ident.NodeID) Set {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= id })
	if i >= len(s) || s[i].ID != id {
		return s
	}
	out := make(Set, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// Union merges two sets; when both contain an ID the strongest mark wins.
// One-sided unions return the non-empty side unchanged — sets are
// immutable, so the sharing is safe, and it keeps the ⊕ fold from cloning
// the longer list's every level on each merge.
func (s Set) Union(o Set) Set {
	if len(s) == 0 {
		return o
	}
	if len(o) == 0 {
		return s
	}
	out := make(Set, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i].ID < o[j].ID:
			out = append(out, s[i])
			i++
		case s[i].ID > o[j].ID:
			out = append(out, o[j])
			j++
		default:
			out = append(out, ident.Entry{ID: s[i].ID, Mark: s[i].Mark.Max(o[j].Mark)})
			i, j = i+1, j+1
		}
	}
	out = append(out, s[i:]...)
	out = append(out, o[j:]...)
	return out
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// IDs returns the node IDs of the set in ascending order.
func (s Set) IDs() []ident.NodeID {
	out := make([]ident.NodeID, len(s))
	for i, e := range s {
		out[i] = e.ID
	}
	return out
}

// Filter returns the entries satisfying keep, preserving order. When
// nothing is rejected the receiver itself is returned (sets are
// immutable, so sharing is safe); this makes the no-op case — the steady
// state of every per-compute cleaning pass — allocation-free.
func (s Set) Filter(keep func(ident.Entry) bool) Set {
	i := 0
	for ; i < len(s); i++ {
		if !keep(s[i]) {
			break
		}
	}
	if i == len(s) {
		return s
	}
	out := make(Set, i, len(s)-1)
	copy(out, s[:i])
	for i++; i < len(s); i++ {
		if keep(s[i]) {
			out = append(out, s[i])
		}
	}
	return out
}

// Equal reports whether two sets hold the same entries (IDs and marks).
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the set as {n1, n2', n3”}.
func (s Set) String() string { return string(s.AppendString(nil)) }

// AppendString appends what String returns to b.
func (s Set) AppendString(b []byte) []byte {
	b = append(b, '{')
	for i, e := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = e.AppendString(b)
	}
	return append(b, '}')
}
