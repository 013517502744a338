package obs

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
)

// TestStretchedMatchesReference is the differential for the tracker's
// induced-diameter test: workerScratch.stretched and mergeable must answer
// exactly RefOf(g).InducedDiameter(set) > dmax. Member sets are connected
// balls of 2–120 nodes, checked at their own diameter and one either side
// of it, so every answer sits on the boundary; plus a disconnected union
// and a member absent from the graph (ΠT: a member that left). One scratch
// serves graphs of growing size, so the index arrays are re-allocated
// between graphs, and one evaluation starts at the last epoch, so the
// stamps wrap.
func TestStretchedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*graph.G{
		graph.ApplyDelta(graph.Clusters(4, 5, 1, false), nil, nil),
		graph.RandomGeometric(60, 9, 1.8, rng),
		graph.ApplyDelta(graph.Clusters(10, 8, 1, true), nil, nil),
		graph.ApplyDelta(graph.RandomGeometric(200, 16, 1.8, rng), nil, nil),
		graph.RandomGeometric(400, 22, 1.8, rng),
	}
	w := newWorkerScratch()
	for gi, g := range graphs {
		ref := graph.RefOf(g)
		nodes := g.Nodes()
		check := func(what string, members []ident.NodeID, dmax int) {
			t.Helper()
			want := diameterOf(ref, members) > dmax
			if got := w.stretched(g, members, dmax); got != want {
				t.Fatalf("graph %d (%v), %s of %d members, dmax %d: stretched = %v, reference %v",
					gi, g, what, len(members), dmax, got, want)
			}
		}
		for trial := 0; trial < 24; trial++ {
			if gi == 3 && trial == 12 {
				w.mEpoch, w.dEpoch = ^uint32(0), ^uint32(0)
			}
			a := ball(g, nodes[rng.Intn(len(nodes))], 2+rng.Intn(119))
			if len(a) < 2 {
				continue
			}
			d := diameterOf(ref, a)
			for dmax := max(d-1, 1); dmax <= d+1; dmax++ {
				check("ball", a, dmax)
			}
			check("ball and an absent member", append(a[:len(a):len(a)], 1<<30), d+1)

			// A second ball, minus the first: disjoint groups, joined or not.
			var b []ident.NodeID
			for _, v := range ball(g, nodes[rng.Intn(len(nodes))], 2+rng.Intn(60)) {
				if !slices.Contains(a, v) {
					b = append(b, v)
				}
			}
			if len(b) == 0 {
				continue
			}
			u := append(a[:len(a):len(a)], b...)
			du := diameterOf(ref, u)
			if du == graph.Infinity {
				du = d + 2
			}
			for dmax := max(du-1, 1); dmax <= du+1; dmax++ {
				check("union", u, dmax)
				if got, want := w.mergeable(g, a, b, dmax), !(diameterOf(ref, u) > dmax); got != want {
					t.Fatalf("graph %d, groups of %d and %d, dmax %d: mergeable = %v, reference %v",
						gi, len(a), len(b), dmax, got, want)
				}
			}
		}
	}
}

// TestStretchedArraysGrowWithHeadroom pins how the BFS arrays follow a
// growing population: one scratch evaluates a group holding the newest
// node on lines that grow one node at a time past the 1 500 nodes its
// arrays were sized for, to 1 600. The arrays are indexed by graph index,
// so they must cover every node; sized to the exact node count they were
// reallocated on every growth (3 arrays × 100 growths), with a quarter of
// headroom never.
func TestStretchedArraysGrowWithHeadroom(t *testing.T) {
	skipUnderRace(t)
	const peak, last = 1500, 1600
	graphs := make([]*graph.G, 0, last-peak+1)
	for n := peak; n <= last; n++ {
		graphs = append(graphs, graph.Line(n))
	}
	w := newWorkerScratch()
	eval := func(g *graph.G) {
		n := ident.NodeID(g.NumNodes())
		if w.stretched(g, []ident.NodeID{n - 2, n - 1, n}, 2) {
			t.Fatalf("the last three nodes of a line of %d are stretched at dmax 2", n)
		}
	}
	eval(graphs[0])
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, g := range graphs[1:] {
		eval(g)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d growths by one node: %d allocations", len(graphs)-1, allocs)
	// Measured 0; the ceiling is one reallocation of the three arrays.
	if allocs > 3 {
		t.Errorf("growing %d → %d nodes one at a time: %d allocations, want at most 3", peak, last, allocs)
	}
}

// ball returns up to k nodes of g nearest to src, in BFS order: a
// connected member set.
func ball(g *graph.G, src ident.NodeID, k int) []ident.NodeID {
	out := []ident.NodeID{src}
	for i := 0; i < len(out) && len(out) < k; i++ {
		for _, u := range g.NeighborsView(out[i]) {
			if len(out) < k && !slices.Contains(out, u) {
				out = append(out, u)
			}
		}
	}
	return out
}

// diameterOf is the reference induced diameter of a member list.
func diameterOf(ref *graph.Ref, members []ident.NodeID) int {
	set := make(map[ident.NodeID]bool, len(members))
	for _, v := range members {
		set[v] = true
	}
	return ref.InducedDiameter(set)
}
