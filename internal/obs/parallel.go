package obs

import (
	"repro/internal/graph"
	"repro/internal/ident"
)

// workerScratch is one fan-out participant's reusable evaluation buffers
// (the tracker keeps one per participant index; a participant runs one
// item at a time and every answer is a pure function of the graph and
// the members, so which participant ran an item never shows): array-based
// BFS state for the small groups the Dmax bound produces, with a
// graph-indexed fallback for pathological sizes. The fallback arrays are
// indexed by the graph's dense node index (graph.G.IndexOf) and
// epoch-stamped, so reuse across evaluations costs two counter bumps
// instead of rebuilding (or clearing) per-evaluation maps.
type workerScratch struct {
	dist  []int          // distance per member index, -1 = unreached
	queue []int          // member-index frontier
	ubuf  []ident.NodeID // union-of-two-groups member buffer
	nbrs  []*group       // one group's upper neighbor groups, by rep (scanPairs)

	memberEpoch []uint32 // graph index → epoch last marked a member
	distEpoch   []uint32 // graph index → epoch last reached
	gdist       []int32  // graph index → BFS distance (valid under distEpoch)
	iq          []int32  // graph-index frontier
	mEpoch      uint32   // current membership epoch (one per evaluation)
	dEpoch      uint32   // current distance epoch (one per BFS source)
}

func newWorkerScratch() *workerScratch { return &workerScratch{} }

// smallGroup is the member count up to which the induced-diameter BFS
// runs on index arrays with linear membership scans — no map traffic.
// Groups are Dmax-bounded in practice, so the fallback is for corrupted
// or adversarial configurations only.
const smallGroup = 48

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
	if k > smallGroup {
		return w.stretchedLarge(g, members, dmax)
	}
	if cap(w.dist) < k {
		w.dist = make([]int, k)
	}
	dist := w.dist[:k]
	for src := 0; src < k; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		w.queue = append(w.queue[:0], src)
		reached := 1
		for qi := 0; qi < len(w.queue); qi++ {
			i := w.queue[qi]
			dv := dist[i]
		nbrs:
			for _, u := range g.NeighborsView(members[i]) {
				// Linear membership scan: the slice is tiny.
				for j := 0; j < k; j++ {
					if members[j] == u {
						if dist[j] < 0 {
							if dv+1 > dmax {
								return true
							}
							dist[j] = dv + 1
							w.queue = append(w.queue, j)
							reached++
						}
						continue nbrs
					}
				}
			}
		}
		if reached != k {
			return true // disconnected (or src left the graph)
		}
	}
	return false
}

// stretchedLarge is the fallback for oversized groups: BFS over the
// graph's dense node indices with epoch-stamped scratch arrays — no map
// beyond the one IndexOf probe per member and per visited edge.
func (w *workerScratch) stretchedLarge(g *graph.G, members []ident.NodeID, dmax int) bool {
	if n := g.NumNodes(); len(w.memberEpoch) < n {
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
	k := len(members)
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
