// Convoy management: a rigid platoon drives as one group; when the tail
// vehicle brakes and falls behind, the diameter bound forces exactly the
// stretched group to shed it — the controlled demonstration of the
// best-effort contract ΠT ⇒ ΠC on live mobility.
package main

import (
	"fmt"

	grp "repro"
)

func main() {
	const dmax = 3
	world := grp.NewWorld(4) // 4-unit radio range
	vehicles := []grp.NodeID{1, 2, 3, 4, 5}

	// Spacing 3 < range 4: a chain. The tail (vehicle 1) brakes after 6
	// time units and drops 2 speed units — it will drift out of range.
	topo := grp.NewSpatialTopology(world, &grp.Convoy{
		Spacing: 3, Speed: 12,
		StragglerEvery: 6, StragglerSlowdown: 2,
	}, 0.1, vehicles, nil)
	s := grp.NewSim(grp.SimParams{Cfg: grp.Config{Dmax: dmax}, Seed: 3}, topo)

	tr := grp.NewTracker()
	last := ""
	for round := 1; round <= 90; round++ {
		s.StepRound()
		snap := grp.SnapshotOf(s)
		tr.Observe(snap, dmax)
		cur := fmt.Sprintf("%v", snap.Groups())
		if cur != last {
			fmt.Printf("round %3d: %s\n", round, cur)
			last = cur
		}
	}

	fmt.Printf("\ntopology stretches (ΠT breaks): %d\n", tr.TopologyBreaks)
	fmt.Printf("membership losses: %d, of which excused by a stretch: %d\n",
		tr.ContinuityViolations, tr.ExcusedViolations)
	fmt.Printf("unexcused losses (the best-effort contract): %d\n", tr.UnexcusedViolations)
}
