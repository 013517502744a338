// Package metrics evaluates the Dynamic Group Service specification on
// configuration snapshots: the agreement (ΠA), safety (ΠS) and maximality
// (ΠM) predicates of the static specification, the topological (ΠT) and
// continuity (ΠC) predicates of the best-effort requirement, plus group
// statistics and churn accounting used by the experiment harness.
package metrics

import (
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
)

// Snapshot is one configuration: topology and views, in maps (the oracle shares no index with the engine).
type Snapshot struct {
	G     *graph.G
	Views map[ident.NodeID]map[ident.NodeID]bool
}

// System is a running GRP system as the predicates see it: a round to
// step, the live protocol nodes and the topology restricted to them.
// *engine.Engine satisfies it; the interface lets the engine leave this
// package unimported, so the product binaries do not link the predicates
// and the engine's own tests can still call them.
type System interface {
	StepRound()
	SnapshotGraph() *graph.G
	Order() []ident.NodeID
	Node(ident.NodeID) *core.Node
}

// SnapshotOf captures s's current configuration. Only live protocol
// nodes contribute views. The view maps are fresh on every call
// (snapshots are routinely held across rounds); the graph is
// s.SnapshotGraph(), which is replaced, never mutated, when the topology
// or the membership changes.
func SnapshotOf(s System) Snapshot {
	ids := s.Order()
	views := make(map[ident.NodeID]map[ident.NodeID]bool, len(ids))
	for _, v := range ids {
		views[v] = s.Node(v).ViewSet()
	}
	return Snapshot{G: s.SnapshotGraph(), Views: views}
}

// RunUntilConverged steps whole rounds of s until the legitimacy
// predicate ΠA ∧ ΠS ∧ ΠM at dmax holds for `stable` consecutive rounds or
// maxRounds passes. It returns the number of rounds to first convergence
// and whether convergence was reached.
func RunUntilConverged(s System, dmax, maxRounds, stable int) (rounds int, ok bool) {
	if stable < 1 {
		stable = 1
	}
	streak := 0
	first := 0
	for r := 1; r <= maxRounds; r++ {
		s.StepRound()
		if SnapshotOf(s).Converged(dmax) {
			if streak == 0 {
				first = r
			}
			streak++
			if streak >= stable {
				return first, true
			}
		} else {
			streak = 0
		}
	}
	return maxRounds, false
}

// Omega returns Ω_v: view_v when v belongs to it and every member agrees
// on exactly that view, else the singleton {v} (the paper's definition of
// the group of v).
func (s Snapshot) Omega(v ident.NodeID) map[ident.NodeID]bool {
	vw := s.Views[v]
	if vw == nil || !vw[v] {
		return map[ident.NodeID]bool{v: true}
	}
	for u := range vw {
		uw := s.Views[u]
		if !sameSet(vw, uw) {
			return map[ident.NodeID]bool{v: true}
		}
	}
	out := make(map[ident.NodeID]bool, len(vw))
	for u := range vw {
		out[u] = true
	}
	return out
}

// Groups returns the distinct groups {Ω_v : v ∈ V}, each sorted, the list
// sorted by first member. Every node belongs to exactly one returned
// group when ΠA holds; otherwise singleton Ωs fill the gaps.
//
// Distinct Ω sets are pairwise disjoint even when ΠA fails (a member u of
// a locally-agreeing group has view_u equal to that group, so u cannot
// simultaneously be the bad node of a singleton Ω or a member of a
// different agreeing view), so the minimum member is a unique
// representative — deduplicating on it replaces the per-node canonical
// string key the seed built (one allocation per node per call).
func (s Snapshot) Groups() [][]ident.NodeID {
	nodes := s.G.AppendNodes(make([]ident.NodeID, 0, s.G.NumNodes()))
	seen := make(map[ident.NodeID]bool, len(nodes))
	var out [][]ident.NodeID
	for _, v := range nodes {
		om := s.Omega(v)
		rep := representative(om)
		if !seen[rep] {
			seen[rep] = true
			out = append(out, setToSorted(om))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Agreement evaluates ΠA: the views must define a partition of the nodes
// into disjoint subgraphs — u and v are in the same part iff their views
// are equal to that part. The per-node local check (v in its own view,
// every member's view equal to it) implies the partition consistency the
// seed double-checked with a canonical-key assignment map: if u appeared
// in two different views A and B that both pass their local checks, then
// view_u = A and view_u = B, a contradiction — so the local checks alone
// decide ΠA, without a string key per group.
func (s Snapshot) Agreement() bool {
	for _, v := range s.G.AppendNodes(make([]ident.NodeID, 0, s.G.NumNodes())) {
		vw := s.Views[v]
		if vw == nil || !vw[v] {
			return false
		}
		for u := range vw {
			if !sameSet(vw, s.Views[u]) {
				return false
			}
		}
	}
	return true
}

// Safety evaluates ΠS: every group Ω_v is connected and has diameter at
// most dmax in its induced subgraph.
func (s Snapshot) Safety(dmax int) bool {
	ref := graph.RefOf(s.G)
	checked := make(map[ident.NodeID]bool)
	for _, v := range s.G.AppendNodes(make([]ident.NodeID, 0, s.G.NumNodes())) {
		om := s.Omega(v)
		rep := representative(om)
		if checked[rep] {
			continue
		}
		checked[rep] = true
		if ref.InducedDiameter(om) > dmax {
			return false
		}
	}
	return true
}

// SafetyRate returns the fraction of groups satisfying ΠS — connected
// with induced diameter at most dmax. The boolean Safety is an
// all-groups conjunction, which a single stretched group zeroes; at
// thousands of mobile groups that conjunction is almost never true, so
// the large-scale sweeps report this per-group freshness rate instead.
func (s Snapshot) SafetyRate(dmax int) float64 {
	groups := s.Groups()
	if len(groups) == 0 {
		return 1
	}
	ref := graph.RefOf(s.G)
	ok := 0
	for _, g := range groups {
		set := make(map[ident.NodeID]bool, len(g))
		for _, v := range g {
			set[v] = true
		}
		if ref.InducedDiameter(set) <= dmax {
			ok++
		}
	}
	return float64(ok) / float64(len(groups))
}

// Maximality evaluates ΠM: merging any two distinct groups must break the
// diameter bound (unreachable pairs count as infinite distance, so groups
// with no connecting path are trivially unmergeable).
func (s Snapshot) Maximality(dmax int) bool {
	groups := s.Groups()
	ref := graph.RefOf(s.G)
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			union := make(map[ident.NodeID]bool, len(groups[i])+len(groups[j]))
			for _, v := range groups[i] {
				union[v] = true
			}
			for _, v := range groups[j] {
				union[v] = true
			}
			if ref.InducedDiameter(union) <= dmax {
				return false
			}
		}
	}
	return true
}

// Converged reports ΠA ∧ ΠS ∧ ΠM: the legitimacy predicate of the static
// specification.
func (s Snapshot) Converged(dmax int) bool {
	return s.Agreement() && s.Safety(dmax) && s.Maximality(dmax)
}

// Topological evaluates ΠT(prev, next): for every node v, the members of
// v's previous group must remain within dmax of each other in the *new*
// topology, using only previous-group members as relays. Nodes that left
// the network make the distance infinite, falsifying ΠT.
func Topological(prev, next Snapshot, dmax int) bool {
	ref := graph.RefOf(next.G)
	checked := make(map[ident.NodeID]bool)
	for _, v := range prev.G.Nodes() {
		om := prev.Omega(v)
		rep := representative(om)
		if checked[rep] {
			continue
		}
		checked[rep] = true
		if len(om) == 1 {
			continue // singletons are never stretched
		}
		for x := range om {
			d := ref.BFSFrom(x, om)
			for y := range om {
				if dy, ok := d[y]; !ok || dy > dmax {
					return false
				}
			}
		}
	}
	return true
}

// Continuity evaluates ΠC(prev, next): no node disappears from any group,
// Ω_v(prev) ⊆ Ω_v(next) for every node still present.
func Continuity(prev, next Snapshot) bool {
	return len(ContinuityViolations(prev, next)) == 0
}

// ContinuityViolations returns the nodes v whose group lost at least one
// member between the two snapshots (Ω_v(prev) ⊄ Ω_v(next)).
func ContinuityViolations(prev, next Snapshot) []ident.NodeID {
	var out []ident.NodeID
	for _, v := range prev.G.Nodes() {
		if !next.G.HasNode(v) {
			continue // v itself left the network
		}
		om := prev.Omega(v)
		nm := next.Omega(v)
		for u := range om {
			if !nm[u] {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// GroupCount returns the number of distinct groups.
func (s Snapshot) GroupCount() int { return len(s.Groups()) }

// SingletonCount returns how many groups are singletons.
func (s Snapshot) SingletonCount() int {
	n := 0
	for _, g := range s.Groups() {
		if len(g) == 1 {
			n++
		}
	}
	return n
}

// MeanGroupSize returns the average group size (0 for an empty snapshot).
func (s Snapshot) MeanGroupSize() float64 {
	groups := s.Groups()
	if len(groups) == 0 {
		return 0
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	return float64(total) / float64(len(groups))
}

func sameSet(a, b map[ident.NodeID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

func setToSorted(m map[ident.NodeID]bool) []ident.NodeID {
	out := make([]ident.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// representative returns the minimum member of a non-empty Ω set — its
// unique representative (distinct Ω sets are disjoint; see Groups).
func representative(m map[ident.NodeID]bool) ident.NodeID {
	first := true
	var rep ident.NodeID
	for v := range m {
		if first || v < rep {
			rep, first = v, false
		}
	}
	return rep
}

// key renders a sorted ID list as a canonical string. It survives only as
// the cross-round group identity of the Tracker's lifetime accounting —
// the per-snapshot predicates dedup by representative instead.
func key(ids []ident.NodeID) string {
	b := make([]byte, 0, len(ids)*5)
	for _, v := range ids {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
	}
	return string(b)
}

// ExternalEdges returns nee(c), the number of edges whose endpoints lie in
// different groups — the potential function of the paper's maximality
// proof (Props. 9–11: once agreement holds, nee no longer increases, and
// it strictly decreases while ΠM is false, which bounds the number of
// merges left).
func (s Snapshot) ExternalEdges() int {
	n := 0
	for _, v := range s.G.Nodes() {
		om := s.Omega(v)
		for _, u := range s.G.NeighborsView(v) {
			if u > v && !om[u] {
				n++
			}
		}
	}
	return n
}
