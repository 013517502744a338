package metrics

import (
	"repro/internal/ident"
)

// Tracker accumulates churn statistics over a sequence of snapshots: how
// long groups live, how often continuity is violated and whether each
// violation was "excused" by a topology change (ΠT false). It is the
// accounting behind the best-effort experiments (E6, E8, E9).
type Tracker struct {
	prev    *Snapshot
	hasPrev bool

	// ContinuityViolations counts transitions where ΠC failed.
	ContinuityViolations int
	// ExcusedViolations counts transitions where ΠC failed but ΠT was
	// false too (the violation is allowed by the best-effort contract).
	ExcusedViolations int
	// UnexcusedViolations counts transitions violating the contract:
	// ΠC false while ΠT held. A correct implementation keeps this at 0.
	UnexcusedViolations int
	// TopologyBreaks counts transitions where ΠT failed.
	TopologyBreaks int

	// groupAge tracks, per live group key, how many steps it existed.
	groupAge map[string]int
	// Lifetimes collects the ages of groups at the step they dissolved.
	Lifetimes []int
	// MembershipChanges counts nodes whose Ω changed between snapshots
	// (a proxy for application-visible churn).
	MembershipChanges int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{groupAge: make(map[string]int)}
}

// Observe feeds the next snapshot, updating every statistic against the
// previously observed one. dmax parameterizes ΠT. The tracker holds s.G
// as it is until the next call (no one edits a graph in place), so s.G
// must keep its rows that long: SnapshotOf's graph does, while a
// SpatialTopology's own Graph() gives them to its successor on Advance.
func (t *Tracker) Observe(s Snapshot, dmax int) {
	cur := make(map[string]bool)
	groups := s.Groups()
	for _, g := range groups {
		cur[key(g)] = true
	}

	if t.hasPrev {
		piT := Topological(*t.prev, s, dmax)
		piC := Continuity(*t.prev, s)
		if !piT {
			t.TopologyBreaks++
		}
		if !piC {
			t.ContinuityViolations++
			if piT {
				t.UnexcusedViolations++
			} else {
				t.ExcusedViolations++
			}
		}
		for _, v := range t.prev.G.Nodes() {
			if !s.G.HasNode(v) {
				continue
			}
			if !sameSet(t.prev.Omega(v), s.Omega(v)) {
				t.MembershipChanges++
			}
		}
		// Age live groups; collect lifetimes of dissolved ones.
		for k, age := range t.groupAge {
			if cur[k] {
				t.groupAge[k] = age + 1
			} else {
				t.Lifetimes = append(t.Lifetimes, age)
				delete(t.groupAge, k)
			}
		}
	}
	for k := range cur {
		if _, ok := t.groupAge[k]; !ok {
			t.groupAge[k] = 1
		}
	}

	cp := s
	cp.Views = cloneViews(s.Views)
	t.prev = &cp
	t.hasPrev = true
}

// MeanLifetime returns the average lifetime of groups, counting groups
// still alive at their current age (so short runs are not biased toward
// dissolved groups only).
func (t *Tracker) MeanLifetime() float64 {
	total, n := 0, 0
	for _, l := range t.Lifetimes {
		total += l
		n++
	}
	for _, age := range t.groupAge {
		total += age
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func cloneViews(v map[ident.NodeID]map[ident.NodeID]bool) map[ident.NodeID]map[ident.NodeID]bool {
	out := make(map[ident.NodeID]map[ident.NodeID]bool, len(v))
	for k, m := range v {
		mm := make(map[ident.NodeID]bool, len(m))
		for x := range m {
			mm[x] = true
		}
		out[k] = mm
	}
	return out
}
