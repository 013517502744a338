// Package dist is the multi-process wrapper around the deterministic
// engine: each process ("shard") replicates the full spatial world and
// mobility stream from the shared seed, but runs the protocol engine
// only over a contiguous slab of the population, exchanging per-tick
// boundary deltas with its peers over a lockstep Transport. Because the
// world replicas are bit-identical and the protocol is carried entirely
// by the broadcast messages, the merged execution is bit-identical to
// the single-process engine at any shard count — pinned by the
// conformance suite and a CI smoke over both transports.
//
// See DESIGN.md §2.6 for the ghost-boundary protocol and the determinism
// argument.
package dist

import "sort"

// Partition is a static slab partition of the world's X axis: shard i
// owns the nodes whose *initial* x position falls in [Cuts[i-1],
// Cuts[i]). Ownership never migrates — a mover that crosses a cut keeps
// its original owner, which is correct because the engine's semantics
// are position-independent (positions only shape the graph, which every
// shard replicates in full); the cuts exist purely to balance load and
// keep the boundary set small.
type Partition struct {
	Cuts []float64 // ascending slab boundaries; len = Shards-1
}

// MakePartition places the cuts at the population quantiles of xs (the
// initial x positions), so the initial load is balanced to within one
// node. Duplicate positions may skew a cut; correctness is unaffected.
func MakePartition(xs []float64, shards int) Partition {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	cuts := make([]float64, 0, shards-1)
	for i := 1; i < shards; i++ {
		if len(sorted) == 0 {
			cuts = append(cuts, 0)
			continue
		}
		cuts = append(cuts, sorted[i*len(sorted)/shards])
	}
	return Partition{Cuts: cuts}
}

// Owner maps an x position to its owning shard: the number of cuts ≤ x,
// so a node exactly on a cut belongs to the higher shard (ties go
// right). With no cuts everything belongs to shard 0.
func (p Partition) Owner(x float64) int {
	return sort.Search(len(p.Cuts), func(i int) bool { return p.Cuts[i] > x })
}

// Shards is the number of slabs the partition describes.
func (p Partition) Shards() int { return len(p.Cuts) + 1 }
