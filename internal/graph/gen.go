package graph

import (
	"math"
	"math/rand"

	"repro/internal/ident"
)

// ids returns NodeIDs 1..n. Node IDs start at 1 because ident.None is 0.
func ids(n int) []ident.NodeID {
	out := make([]ident.NodeID, n)
	for i := range out {
		out[i] = ident.NodeID(i + 1)
	}
	return out
}

// Line returns the path graph 1-2-...-n.
func Line(n int) *G {
	r := NewRef()
	v := ids(n)
	for _, x := range v {
		r.AddNode(x)
	}
	for i := 0; i+1 < n; i++ {
		r.AddEdge(v[i], v[i+1])
	}
	return FromRef(r)
}

// Ring returns the cycle graph on n nodes.
func Ring(n int) *G {
	r := RefOf(Line(n))
	if n > 2 {
		r.AddEdge(ident.NodeID(1), ident.NodeID(n))
	}
	return FromRef(r)
}

// Grid returns the rows×cols king-free (4-neighbor) grid.
func Grid(rows, cols int) *G {
	g := NewRef()
	at := func(r, c int) ident.NodeID { return ident.NodeID(r*cols + c + 1) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddNode(at(r, c))
			if r > 0 {
				g.AddEdge(at(r, c), at(r-1, c))
			}
			if c > 0 {
				g.AddEdge(at(r, c), at(r, c-1))
			}
		}
	}
	return FromRef(g)
}

// Star returns the star with center 1 and n-1 leaves.
func Star(n int) *G {
	g := NewRef()
	v := ids(n)
	for _, x := range v {
		g.AddNode(x)
	}
	for i := 1; i < n; i++ {
		g.AddEdge(v[0], v[i])
	}
	return FromRef(g)
}

// Complete returns K_n.
func Complete(n int) *G {
	g := NewRef()
	v := ids(n)
	for i := range v {
		g.AddNode(v[i])
		for j := 0; j < i; j++ {
			g.AddEdge(v[i], v[j])
		}
	}
	return FromRef(g)
}

// RandomGeometric places n nodes uniformly in the side×side square and
// connects pairs within range r. Deterministic for a given rng state.
func RandomGeometric(n int, side, r float64, rng *rand.Rand) *G {
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{rng.Float64() * side, rng.Float64() * side}
	}
	g := NewRef()
	v := ids(n)
	for i := range v {
		g.AddNode(v[i])
		for j := 0; j < i; j++ {
			dx, dy := pts[i].x-pts[j].x, pts[i].y-pts[j].y
			if math.Hypot(dx, dy) <= r {
				g.AddEdge(v[i], v[j])
			}
		}
	}
	return FromRef(g)
}

// ConnectedRandomGeometric retries RandomGeometric until connected (or
// maxTries), then returns it. Returns nil if no connected instance was
// found; callers treat that as a skip.
func ConnectedRandomGeometric(n int, side, r float64, rng *rand.Rand, maxTries int) *G {
	for t := 0; t < maxTries; t++ {
		g := RandomGeometric(n, side, r, rng)
		if g.Connected() {
			return g
		}
	}
	return nil
}

// Clusters returns k cliques of size sz, chained by single bridge edges:
// clique_i's last node connects to clique_{i+1}'s first node via a path of
// bridgeLen extra relay nodes (bridgeLen = 0 means a direct edge). If ring
// is true the last clique also connects back to the first — the paper's
// "loop of groups willing to merge" gadget.
func Clusters(k, sz, bridgeLen int, ring bool) *G {
	g := NewRef()
	next := ident.NodeID(1)
	alloc := func() ident.NodeID { v := next; next++; g.AddNode(v); return v }
	firsts := make([]ident.NodeID, k)
	lasts := make([]ident.NodeID, k)
	for c := 0; c < k; c++ {
		members := make([]ident.NodeID, sz)
		for i := range members {
			members[i] = alloc()
			for j := 0; j < i; j++ {
				g.AddEdge(members[i], members[j])
			}
		}
		firsts[c], lasts[c] = members[0], members[sz-1]
	}
	bridge := func(a, b ident.NodeID) {
		prev := a
		for i := 0; i < bridgeLen; i++ {
			relay := alloc()
			g.AddEdge(prev, relay)
			prev = relay
		}
		g.AddEdge(prev, b)
	}
	for c := 0; c+1 < k; c++ {
		bridge(lasts[c], firsts[c+1])
	}
	if ring && k > 2 {
		bridge(lasts[k-1], firsts[0])
	}
	return FromRef(g)
}
