package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/metrics"
)

func TestMaxMinLineRadiusBound(t *testing.T) {
	g := graph.Line(10)
	d := 2
	head := maxMin(g, d)
	for v, h := range head {
		if head[h] != h {
			t.Fatalf("head of %v is %v which is not a head itself", v, h)
		}
	}
	for h, members := range headClusters(head) {
		set := make(map[ident.NodeID]bool)
		for _, m := range members {
			set[m] = true
		}
		dist := g.BFSFrom(h, set)
		for _, m := range members {
			if dm, ok := dist[m]; !ok || dm > d {
				t.Fatalf("member %v beyond radius %d of head %v (cluster %v)", m, d, h, members)
			}
		}
	}
}

func TestMaxMinDiameterSafety(t *testing.T) {
	// With d = Dmax/2 the clusters satisfy the paper's ΠS.
	for seed := int64(1); seed <= 5; seed++ {
		g := graph.ConnectedRandomGeometric(30, 10, 4, rand.New(rand.NewSource(seed)), 100)
		if g == nil {
			t.Skip("no connected instance")
		}
		dmax := 4
		head := maxMin(g, dmax/2)
		snap := metrics.Snapshot{G: g, Views: headViews(head)}
		if !snap.Safety(dmax) {
			t.Fatalf("seed %d: MaxMin clusters violate ΠS: %v", seed, snap.Groups())
		}
		if !snap.Agreement() {
			t.Fatalf("seed %d: MaxMin views must agree by construction", seed)
		}
	}
}

func TestMaxMinSingletonAndPair(t *testing.T) {
	g := graph.New()
	g.AddNode(1)
	head := maxMin(g, 2)
	if head[1] != 1 {
		t.Fatalf("lone node must head itself: %v", head)
	}
	g2 := graph.Line(2)
	c := headClusters(maxMin(g2, 1))
	if len(c) != 1 {
		t.Fatalf("pair should form one cluster: %v", c)
	}
}

func TestMaxMinDeterministic(t *testing.T) {
	g := graph.Grid(4, 5)
	a := maxMin(g, 2)
	b := maxMin(g, 2)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("MaxMin must be deterministic")
		}
	}
}

func TestMaxMinRecomputationChurn(t *testing.T) {
	// The motivating defect of re-clustering baselines: removing one edge
	// can reassign many nodes. Here we only check the mechanism runs and
	// produces a valid clustering after the change.
	g := graph.Grid(3, 5)
	before := maxMin(g, 2)
	g.RemoveEdge(7, 8)
	after := maxMin(g, 2)
	if len(before) != len(after) {
		t.Fatal("node count changed")
	}
}

func TestGreedyPartitionCoversAndRespectsDiameter(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := graph.ConnectedRandomGeometric(25, 10, 4, rand.New(rand.NewSource(seed)), 100)
		if g == nil {
			t.Skip("no connected instance")
		}
		views := greedyPartition(g, 3)
		snap := metrics.Snapshot{G: g, Views: views}
		if !snap.Agreement() || !snap.Safety(3) {
			t.Fatalf("seed %d: greedy partition invalid: %v", seed, snap.Groups())
		}
		if len(views) != g.NumNodes() {
			t.Fatalf("seed %d: not all nodes assigned", seed)
		}
	}
}

func TestGreedyPartitionLine(t *testing.T) {
	g := graph.Line(9)
	groups := metrics.Snapshot{G: g, Views: greedyPartition(g, 2)}.Groups()
	if len(groups) != 3 {
		t.Fatalf("9-line at Dmax=2 should give 3 triples: %v", groups)
	}
}

func TestViewsShape(t *testing.T) {
	head := maxMin(graph.Line(4), 1)
	views := headViews(head)
	for v, vw := range views {
		if !vw[v] {
			t.Fatalf("node %v missing from its own view", v)
		}
	}
}
