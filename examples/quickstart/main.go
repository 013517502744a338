// Quickstart: simulate eight nodes on a line, watch the groups form,
// split the line and watch the service re-partition — the minimal tour of
// the public API.
package main

import (
	"fmt"

	grp "repro"
)

func main() {
	// A GRP deployment is parameterized by one application constant: the
	// maximal group diameter Dmax.
	cfg := grp.Config{Dmax: 3}

	// Eight nodes in a row, e.g. vehicles on a road.
	road := &grp.StaticTopology{G: grp.Line(8)}
	s := grp.NewSim(grp.SimParams{Cfg: cfg, Seed: 42}, road)

	fmt.Println("== converging from boot ==")
	rounds, ok := grp.RunUntilConverged(s, cfg.Dmax, 200, 3)
	fmt.Printf("converged=%v after %d rounds\n", ok, rounds)
	for _, group := range grp.SnapshotOf(s).Groups() {
		fmt.Println("  group:", group)
	}

	// Every member of a group holds the same view — that is the agreement
	// property the applications build on.
	view := s.Node(2).View()
	fmt.Println("node n2's view:", view)

	// Break the road inside the first group: that group is stretched
	// beyond Dmax (ΠT is false), so it — and only it — may shed members.
	fmt.Println("\n== cutting the 2-3 link (inside a group) ==")
	before := grp.SnapshotOf(s)
	road.Edit(func(g *grp.GraphEdit) { g.RemoveEdge(2, 3) })
	for i := 0; i < 30; i++ {
		s.StepRound()
	}
	after := grp.SnapshotOf(s)
	fmt.Printf("ΠT held: %v (false: the cut stretched a group, excusing the split)\n",
		grp.Topological(before, after, cfg.Dmax))
	for _, group := range after.Groups() {
		fmt.Println("  group:", group)
	}
	fmt.Printf("re-converged: %v\n", after.Converged(cfg.Dmax))
}
