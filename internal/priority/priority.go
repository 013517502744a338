// Package priority implements the totally ordered node priorities of the
// GRP protocol and their lift to group priorities.
//
// The paper's "powerful implementation" is oldness: a node's priority is a
// logical clock (Lamport) that ticks while the node is alone and freezes
// once it belongs to a group of more than one node. Smaller priority wins
// (pr(u) < pr(v) means u has the priority), so long-lived group members
// dominate newcomers, and the group priority — the minimum over members —
// lets whole groups be compared when a merge conflict must be resolved.
package priority

import (
	"strconv"

	"repro/internal/ident"
)

// P is a node priority: a 64-bit logical clock with the node ID as
// tie-break, so the order is total as the protocol requires. The clock is
// kept in two 32-bit halves, so P is 12 bytes with no padding (DESIGN.md
// §2.1, Priorities).
type P struct {
	hi, lo uint32 // the clock's high and low halves
	ID     ident.NodeID
}

// Of returns the priority of node id at the given clock.
func Of(clock uint64, id ident.NodeID) P { return P{uint32(clock >> 32), uint32(clock), id} }

// Clock returns p's logical clock.
func (p P) Clock() uint64 { return uint64(p.hi)<<32 | uint64(p.lo) }

// Infinite is a priority larger than any real one; it is the identity for
// Min and the natural "unknown" value.
var Infinite = Of(^uint64(0), ident.NodeID(^uint32(0)))

// New returns the initial priority of node id (clock 0).
func New(id ident.NodeID) P { return P{ID: id} }

// Less reports whether p wins over o (strictly smaller in the total order).
func (p P) Less(o P) bool {
	return p.Clock() < o.Clock() || p.Clock() == o.Clock() && p.ID < o.ID
}

// Min returns the winning (smaller) of two priorities.
func (p P) Min(o P) P {
	if o.Less(p) {
		return o
	}
	return p
}

// Tick returns the priority with the logical clock advanced by one. Called
// at each computation while the node is not in a group.
func (p P) Tick() P { return Of(p.Clock()+1, p.ID) }

// IsInfinite reports whether p is the Infinite sentinel.
func (p P) IsInfinite() bool { return p == Infinite }

// String implements fmt.Stringer.
func (p P) String() string { return string(p.AppendString(nil)) }

// AppendString appends what String returns to b.
func (p P) AppendString(b []byte) []byte {
	if p.IsInfinite() {
		return append(b, "pr(∞)"...)
	}
	b = strconv.AppendUint(append(b, "pr("...), p.Clock(), 10)
	return append(p.ID.AppendString(append(b, '@')), ')')
}
