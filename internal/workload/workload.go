// Package workload builds the experiment scenarios: corrupted initial
// configurations for the self-stabilization experiments, mobility traces
// that provably preserve or violate the topological predicate ΠT, and the
// structured merge gadgets (chains and rings of groups) from the paper's
// discussion.
package workload

import (
	"math/rand"

	"repro/internal/antlist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/priority"
)

// CorruptionKind selects what kind of garbage to inject for the
// self-stabilization experiments (Propositions 1 and 2).
type CorruptionKind int

const (
	// CorruptGhosts injects non-existent node IDs into lists.
	CorruptGhosts CorruptionKind = iota
	// CorruptOversized injects lists longer than Dmax+1.
	CorruptOversized
	// CorruptViews injects bogus view memberships (agreement damage).
	CorruptViews
	// CorruptPriorities injects wildly diverging clocks.
	CorruptPriorities
)

// Corrupt injects garbage of the given kind into a fraction of the
// simulation's nodes, deterministically from rng. It returns the number
// of corrupted nodes.
func Corrupt(s *engine.Engine, kind CorruptionKind, fraction float64, rng *rand.Rand) int {
	corrupted := 0
	ghostBase := uint32(60000)
	for _, v := range s.Topo.Nodes() {
		n := s.Node(v)
		if n == nil || rng.Float64() >= fraction {
			continue
		}
		corrupted++
		switch kind {
		case CorruptGhosts:
			l := antlist.FromSets(
				antlist.NewSet(ident.Plain(v)),
				antlist.NewSet(ident.Plain(ident.NodeID(ghostBase+rng.Uint32()%1000))),
				antlist.NewSet(ident.Plain(ident.NodeID(ghostBase+1000+rng.Uint32()%1000))),
			)
			n.LoadState(l, nil, nil, priority.P{Clock: uint64(rng.Intn(10)), ID: v})
		case CorruptOversized:
			depth := s.P.Cfg.Dmax + 3 + rng.Intn(4)
			sets := make([]antlist.Set, depth)
			sets[0] = antlist.NewSet(ident.Plain(v))
			for i := 1; i < depth; i++ {
				sets[i] = antlist.NewSet(ident.Plain(ident.NodeID(ghostBase + uint32(i)*17 + rng.Uint32()%100)))
			}
			n.LoadState(antlist.FromSets(sets...), nil, nil, priority.P{Clock: uint64(rng.Intn(10)), ID: v})
		case CorruptViews:
			view := map[ident.NodeID]bool{v: true}
			for i := 0; i < 3; i++ {
				view[ident.NodeID(ghostBase+rng.Uint32()%50)] = true
			}
			n.LoadState(antlist.Singleton(ident.Plain(v)), view, nil, priority.New(v))
		case CorruptPriorities:
			n.LoadState(antlist.Singleton(ident.Plain(v)), nil, nil,
				priority.P{Clock: rng.Uint64() % (1 << 40), ID: v})
		}
	}
	return corrupted
}

// HasGhosts reports whether any node's list mentions an ID that is not a
// live node of the simulation.
func HasGhosts(s *engine.Engine) bool {
	for _, v := range s.Order() {
		for _, u := range s.Node(v).List().IDs() {
			if s.Node(u) == nil {
				return true
			}
		}
	}
	return false
}

// MaxListLen returns the longest list length across all nodes.
func MaxListLen(s *engine.Engine) int {
	out := 0
	for _, v := range s.Order() {
		if l := s.Node(v).List().Len(); l > out {
			out = l
		}
	}
	return out
}

// GentleDrift is a mobility scenario wrapper for the continuity
// experiments: a platoon on a line whose spacing grows so slowly that the
// diameter bound is preserved for preserveRounds rounds (ΠT holds), and
// is violated afterwards. It is realized as a static topology edited by
// Apply at the right tick, which gives exact control over when ΠT breaks.
type GentleDrift struct {
	N              int
	PreserveRounds int

	applied bool
}

// Graph returns the initial topology: a line of N nodes.
func (d *GentleDrift) Graph() *graph.G { return graph.Line(d.N) }

// Apply edits the topology at the given round: before PreserveRounds
// nothing changes (ΠT holds trivially); at PreserveRounds the tail edge is
// cut (stretching the tail beyond any bound — ΠT false). Returns true if
// a change happened this round.
func (d *GentleDrift) Apply(topo *engine.StaticTopology, round int) bool {
	if d.applied || round < d.PreserveRounds {
		return false
	}
	topo.Edit(func(r *graph.Ref) { r.RemoveEdge(ident.NodeID(d.N-1), ident.NodeID(d.N)) })
	d.applied = true
	return true
}

// MergeChain returns a static scenario where k groups sit on a line with
// one-hop gaps, sized so that consecutive groups can merge under dmax —
// exercising repeated pairwise merging (the maximality property).
func MergeChain(k, groupSize int) *graph.G {
	return graph.Clusters(k, groupSize, 0, false)
}

// MergeRing is the paper's "loop of groups willing to merge": k groups in
// a cycle, every consecutive pair mergeable. Group priorities must break
// the symmetry.
func MergeRing(k, groupSize int) *graph.G {
	return graph.Clusters(k, groupSize, 0, true)
}

// DoubleJoin is the concurrent-admission gadget for the quarantine
// experiment: a core line of coreN nodes plus two fresh nodes attached at
// the opposite ends, sized so that each newcomer is individually
// admissible but admitting both violates the diameter bound. The two
// joiners are the highest IDs.
func DoubleJoin(coreN, dmax int) (*graph.G, ident.NodeID, ident.NodeID) {
	r := graph.RefOf(graph.Line(coreN))
	left := ident.NodeID(coreN + 1)
	right := ident.NodeID(coreN + 2)
	r.AddEdge(left, 1)
	r.AddEdge(ident.NodeID(coreN), right)
	return graph.FromRef(r), left, right
}
