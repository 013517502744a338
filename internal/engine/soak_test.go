package engine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// TestSoakConvergence sweeps the topology regime this reproduction
// verifies full convergence on — sparse chains, rings, moderate grids,
// stars, bridged cliques: the VANET-like graphs the paper targets — and
// asserts ΠA∧ΠS∧ΠM is reached on every instance and seed.
func TestSoakConvergence(t *testing.T) {
	type tc struct {
		name string
		g    func() *graph.G
		dmax int
	}
	cases := []tc{
		{"line10-d3", func() *graph.G { return graph.Line(10) }, 3},
		{"line10-d9", func() *graph.G { return graph.Line(10) }, 9},
		{"line20-d4", func() *graph.G { return graph.Line(20) }, 4},
		{"ring12-d4", func() *graph.G { return graph.Ring(12) }, 4},
		{"star8-d2", func() *graph.G { return graph.Star(8) }, 2},
		{"clique6-d2", func() *graph.G { return graph.Complete(6) }, 2},
		{"clusters-d2", func() *graph.G { return graph.Clusters(3, 4, 0, false) }, 2},
		{"clusterring-d2", func() *graph.G { return graph.Clusters(3, 3, 0, true) }, 2},
	}
	budget := 800
	if testing.Short() {
		budget = 400
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			s := NewStatic(Params{Cfg: core.Config{Dmax: c.dmax}, Seed: seed, Jitter: seed%2 == 0}, c.g())
			if _, ok := metrics.RunUntilConverged(s, c.dmax, budget, 3); !ok {
				t.Errorf("%s seed=%d: no convergence: %v", c.name, seed, metrics.SnapshotOf(s).Groups())
			}
		}
	}
}

// TestSoakSparseRGG checks sparse random geometric graphs up to n=25.
func TestSoakSparseRGG(t *testing.T) {
	for _, n := range []int{15, 25} {
		for seed := int64(1); seed <= 2; seed++ {
			g := graph.ConnectedRandomGeometric(n, 14, 2.6, rand.New(rand.NewSource(seed)), 500)
			if g == nil {
				continue // no connected sparse instance for this seed
			}
			s := NewStatic(Params{Cfg: core.Config{Dmax: 3}, Seed: seed}, g)
			if _, ok := metrics.RunUntilConverged(s, 3, 1500, 3); !ok {
				t.Errorf("sparse rgg n=%d seed=%d (deg %.1f): no convergence: %v",
					n, seed, 2*float64(g.NumEdges())/float64(g.NumNodes()), metrics.SnapshotOf(s).Groups())
			}
		}
	}
}

// TestSoakMetastableRegime covers the graphs where this reproduction
// documents partial convergence (DESIGN.md §3): dense random geometric
// graphs and a few symmetric gadgets can settle into metastable
// non-maximal partitions. Safety and agreement-of-nonempty-groups are
// still asserted on every instance; maximality is measured as a rate and
// reported by experiment E13.
func TestSoakMetastableRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	type tc struct {
		name string
		g    func(seed int64) *graph.G
		dmax int
	}
	cases := []tc{
		{"ring9-d2", func(int64) *graph.G { return graph.Ring(9) }, 2},
		{"grid2x6-d3", func(int64) *graph.G { return graph.Grid(2, 6) }, 3},
		{"grid4x4-d3", func(int64) *graph.G { return graph.Grid(4, 4) }, 3},
		{"denseRGG20-d3", func(seed int64) *graph.G {
			return graph.ConnectedRandomGeometric(20, 10, 3.5, rand.New(rand.NewSource(seed)), 200)
		}, 3},
	}
	conv, total := 0, 0
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			g := c.g(seed)
			if g == nil {
				continue
			}
			s := NewStatic(Params{Cfg: core.Config{Dmax: c.dmax}, Seed: seed}, g)
			total++
			if _, ok := metrics.RunUntilConverged(s, c.dmax, 600, 3); ok {
				conv++
			}
			snap := metrics.SnapshotOf(s)
			if !snap.Safety(c.dmax) {
				t.Errorf("%s seed=%d: safety violated: %v", c.name, seed, snap.Groups())
			}
		}
	}
	t.Logf("metastable regime full convergence: %d/%d", conv, total)
}
