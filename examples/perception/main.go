// Collaborative perception: the paper's second motivating application.
// Vehicles on a highway fuse their sensor readings with the other members
// of their group; the diameter bound Dmax keeps fused data spatially
// relevant (no far-away readings), the agreement property makes every
// member fuse over the same set, and continuity guarantees a vehicle's
// fusion set only shrinks when the topology genuinely stretched.
package main

import (
	"fmt"
	"math/rand"

	grp "repro"
)

// reading is one vehicle's sensed hazard estimate (say, friction).
type reading struct {
	vehicle grp.NodeID
	value   float64
}

// fuse averages the readings of the group members — a stand-in for any
// real fusion pipeline.
func fuse(view []grp.NodeID, all map[grp.NodeID]float64) (float64, int) {
	sum, n := 0.0, 0
	for _, v := range view {
		if x, ok := all[v]; ok {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func main() {
	const dmax = 4
	rng := rand.New(rand.NewSource(7))

	// Twelve vehicles on a two-lane highway with varied speeds.
	world := grp.NewWorld(8)
	var vehicles []grp.NodeID
	for i := 1; i <= 12; i++ {
		vehicles = append(vehicles, grp.NodeID(i))
	}
	topo := grp.NewSpatialTopology(world, &grp.Highway{
		Length: 80, Lanes: 2, LaneGap: 2, SpeedMin: 10, SpeedMax: 11,
	}, 0.05, vehicles, rng)
	s := grp.NewSim(grp.SimParams{Cfg: grp.Config{Dmax: dmax}, Seed: 7}, topo)

	// Let the groups form while traffic flows.
	for i := 0; i < 60; i++ {
		s.StepRound()
	}

	// Each vehicle senses the road.
	sensed := make(map[grp.NodeID]float64, len(vehicles))
	for _, v := range vehicles {
		sensed[v] = 0.4 + 0.2*rng.Float64()
	}
	// A local hazard at the front of the pack.
	sensed[1] = 0.05

	fmt.Println("== per-group fused perception ==")
	snap := grp.SnapshotOf(s)
	for _, group := range snap.Groups() {
		leader := group[0]
		view := s.Node(leader).View()
		fused, n := fuse(view, sensed)
		fmt.Printf("  group %v: fused friction %.2f over %d sensors\n", group, fused, n)
	}

	// Keep driving: groups persist while distances allow, so the fusion
	// sets are stable input for downstream control loops.
	tr := grp.NewTracker()
	tr.Observe(snap, dmax)
	for i := 0; i < 40; i++ {
		s.StepRound()
		tr.Observe(grp.SnapshotOf(s), dmax)
	}
	fmt.Printf("\nover 40 more rounds: %d topology stretches, %d membership losses (%d excused by a stretch)\n",
		tr.TopologyBreaks, tr.ContinuityViolations, tr.ExcusedViolations)
	fmt.Printf("losses during ongoing merge negotiations: %d\n", tr.UnexcusedViolations)
}
