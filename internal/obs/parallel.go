package obs

import (
	"repro/internal/graph"
	"repro/internal/ident"
)

// workerScratch is one fan-out participant's reusable evaluation buffers
// (the tracker keeps one per participant index; a participant runs one
// item at a time and every answer is a pure function of the graph and
// the members, so which participant ran an item never shows). The BFS
// arrays are indexed by the graph's dense node index (graph.G.IndexOf)
// and epoch-stamped, so reuse across evaluations costs two counter bumps
// instead of rebuilding (or clearing) per-evaluation maps.
type workerScratch struct {
	ubuf []ident.NodeID // union-of-two-groups member buffer
	nbrs []*group       // one group's upper neighbor groups, by rep (scanPairs)

	memberEpoch []uint32 // graph index → epoch last marked a member
	distEpoch   []uint32 // graph index → epoch last reached
	gdist       []int32  // graph index → BFS distance (valid under distEpoch)
	iq          []int32  // graph-index frontier
	mEpoch      uint32   // current membership epoch (one per evaluation)
	dEpoch      uint32   // current distance epoch (one per BFS source)
}

func newWorkerScratch() *workerScratch { return &workerScratch{} }

// stretched reports whether the subgraph of g induced by members has
// diameter > dmax (disconnection counts as infinite): the single quantity
// behind both ΠS (evaluated on the current partition and graph) and ΠT
// (evaluated on the previous partition against the new graph — a member
// that left g is unreachable and stretches the group). Singleton groups
// are never stretched.
func (w *workerScratch) stretched(g *graph.G, members []ident.NodeID, dmax int) bool {
	k := len(members)
	if k <= 1 {
		return false
	}
	if n := g.NumNodes(); len(w.memberEpoch) < n {
		// A quarter of headroom: a population that grows a node at a
		// time reallocates a bounded number of times, not once per node.
		n += n / 4
		w.memberEpoch = make([]uint32, n)
		w.distEpoch = make([]uint32, n)
		w.gdist = make([]int32, n)
		w.mEpoch, w.dEpoch = 0, 0
	}
	w.mEpoch++
	if w.mEpoch == 0 { // wrapped: stale stamps could collide — reset
		clear(w.memberEpoch)
		w.mEpoch = 1
	}
	for _, v := range members {
		i := g.IndexOf(v)
		if i < 0 {
			// A member absent from the graph (it departed; ΠT evaluates
			// the previous partition against the new topology) is
			// unreachable from the others, so the group is stretched.
			return true
		}
		w.memberEpoch[i] = w.mEpoch
	}
	for _, src := range members {
		w.dEpoch++
		if w.dEpoch == 0 {
			clear(w.distEpoch)
			w.dEpoch = 1
		}
		si := g.IndexOf(src)
		w.distEpoch[si] = w.dEpoch
		w.gdist[si] = 0
		w.iq = append(w.iq[:0], si)
		reached := 1
		for qi := 0; qi < len(w.iq); qi++ {
			vi := w.iq[qi]
			dv := int(w.gdist[vi])
			for _, u := range g.NeighborsAt(vi) {
				ui := g.IndexOf(u)
				if w.memberEpoch[ui] != w.mEpoch || w.distEpoch[ui] == w.dEpoch {
					continue
				}
				if dv+1 > dmax {
					return true
				}
				w.distEpoch[ui] = w.dEpoch
				w.gdist[ui] = int32(dv + 1)
				w.iq = append(w.iq, ui)
				reached++
			}
		}
		if reached != k {
			return true
		}
	}
	return false
}

// mergeable reports whether the union of two disjoint groups induces a
// subgraph of diameter ≤ dmax — the pairwise test of ΠM, evaluated only
// for groups joined by at least one external edge (a union with no
// connecting edge is disconnected, hence never mergeable).
func (w *workerScratch) mergeable(g *graph.G, a, b []ident.NodeID, dmax int) bool {
	w.ubuf = w.ubuf[:0]
	w.ubuf = append(w.ubuf, a...)
	w.ubuf = append(w.ubuf, b...)
	return !w.stretched(g, w.ubuf, dmax)
}
