package obs

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
)

// TestStretchedMatchesReference is the differential for the tracker's
// induced-diameter test: workerScratch.stretched and mergeable must answer
// exactly RefOf(g).InducedDiameter(set) > dmax, on both sides of
// smallGroup (the linear-scan BFS and the graph-indexed stretchedLarge).
// Member sets are connected balls of 2–120 nodes, checked at their own
// diameter and one either side of it, so every answer sits on the
// boundary; plus a disconnected union and a member absent from the graph
// (ΠT: a member that left). One scratch serves graphs of growing size, so
// the index arrays are re-allocated between graphs, and one evaluation
// starts at the last epoch, so the stamps wrap.
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
	large := 0
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
			if len(members) > smallGroup {
				large++
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
	if large == 0 {
		t.Fatal("no member set above smallGroup: stretchedLarge never ran")
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
