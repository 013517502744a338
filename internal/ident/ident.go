// Package ident defines node identities and the mark lattice used by the
// GRP protocol's ancestor lists.
//
// A node appears in an ancestor list as an Entry: its NodeID plus a Mark.
// Marks implement the paper's symmetric-link triple handshake and the
// group-boundary ("incompatible neighbor") mechanism:
//
//   - MarkPlain: an ordinary, confirmed member entry.
//   - MarkSingle: the sender kept the node's identity but could not use its
//     list (asymmetric or not-yet-confirmed link); written ū in the paper.
//   - MarkDouble: the node was rejected as incompatible (its list would
//     break the diameter bound, or it lost a too-far priority contest);
//     written u̿ in the paper. A double-marked edge is a group boundary.
//
// Marked entries are meaningful only between direct neighbors: receivers
// delete every marked entry that does not name themselves, so marks are
// never propagated more than one hop.
package ident

import (
	"fmt"
	"strconv"
)

// NodeID identifies a node. IDs are dense small integers in simulations but
// nothing in the protocol relies on density; only equality and total order
// (for deterministic iteration and priority tie-breaks) are used.
type NodeID uint32

// None is the zero NodeID, never assigned to a real node.
const None NodeID = 0

// String renders the ID as the paper does (n<id>).
func (id NodeID) String() string { return string(id.AppendString(nil)) }

// AppendString appends what String returns to b.
func (id NodeID) AppendString(b []byte) []byte {
	return strconv.AppendUint(append(b, 'n'), uint64(id), 10)
}

// Mark is the per-entry mark level.
type Mark uint8

const (
	// MarkPlain marks a confirmed, usable entry.
	MarkPlain Mark = iota
	// MarkSingle marks a kept-but-unusable sender (asymmetric link leg of
	// the triple handshake).
	MarkSingle
	// MarkDouble marks an incompatible neighbor (group boundary).
	MarkDouble
)

// String implements fmt.Stringer.
func (m Mark) String() string {
	switch m {
	case MarkPlain:
		return "plain"
	case MarkSingle:
		return "single"
	case MarkDouble:
		return "double"
	default:
		return fmt.Sprintf("mark(%d)", uint8(m))
	}
}

// Marked reports whether the mark is anything other than plain.
func (m Mark) Marked() bool { return m != MarkPlain }

// Max returns the stronger of two marks. Used when the same node reaches a
// position from several sources: the strongest statement wins, so a
// boundary (double) mark is never silently downgraded within one compute.
func (m Mark) Max(o Mark) Mark {
	if o > m {
		return o
	}
	return m
}

// Entry is one element of an ancestor set: a node identity plus its mark.
type Entry struct {
	ID   NodeID
	Mark Mark
}

// String renders the entry with the paper's bar notation.
func (e Entry) String() string { return string(e.AppendString(nil)) }

// AppendString appends what String returns to b.
func (e Entry) AppendString(b []byte) []byte {
	b = e.ID.AppendString(b)
	switch e.Mark {
	case MarkSingle:
		b = append(b, '\'')
	case MarkDouble:
		b = append(b, "''"...)
	}
	return b
}

// Plain returns an unmarked entry for id.
func Plain(id NodeID) Entry { return Entry{ID: id} }

// Single returns a single-marked entry for id.
func Single(id NodeID) Entry { return Entry{ID: id, Mark: MarkSingle} }

// Double returns a double-marked entry for id.
func Double(id NodeID) Entry { return Entry{ID: id, Mark: MarkDouble} }
