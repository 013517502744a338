// Urban intersection: two streets cross; buildings at the corners block
// radio across the diagonal, so vehicles hear each other only along their
// own street (plus everyone near the open intersection). The obstacle
// model shapes the topology, and the group service partitions the
// intersection into street-wise groups bounded by Dmax.
package main

import (
	"fmt"

	grp "repro"
	"repro/internal/space"
)

func main() {
	const dmax = 3
	world := grp.NewWorld(7)

	// Four building corners around the intersection at (0,0): walls along
	// their inner edges block the diagonals.
	world.Walls = []space.Segment{
		{A: grp.Point{X: 2, Y: 2}, B: grp.Point{X: 12, Y: 2}},
		{A: grp.Point{X: 2, Y: 2}, B: grp.Point{X: 2, Y: 12}},
		{A: grp.Point{X: -2, Y: 2}, B: grp.Point{X: -12, Y: 2}},
		{A: grp.Point{X: -2, Y: 2}, B: grp.Point{X: -2, Y: 12}},
		{A: grp.Point{X: 2, Y: -2}, B: grp.Point{X: 12, Y: -2}},
		{A: grp.Point{X: 2, Y: -2}, B: grp.Point{X: 2, Y: -12}},
		{A: grp.Point{X: -2, Y: -2}, B: grp.Point{X: -12, Y: -2}},
		{A: grp.Point{X: -2, Y: -2}, B: grp.Point{X: -2, Y: -12}},
	}

	// Vehicles 1-4 on the east-west street, 5-8 on the north-south one.
	positions := map[grp.NodeID]grp.Point{
		1: {X: -9, Y: 0}, 2: {X: -4, Y: 0}, 3: {X: 4, Y: 0}, 4: {X: 9, Y: 0},
		5: {X: 0, Y: -9}, 6: {X: 0, Y: -4}, 7: {X: 0, Y: 4}, 8: {X: 0, Y: 9},
	}
	var ids []grp.NodeID
	for v := grp.NodeID(1); v <= 8; v++ {
		world.Place(v, positions[v])
		ids = append(ids, v)
	}

	g := world.SymmetricGraph()
	fmt.Println("== link map shaped by the buildings ==")
	for _, v := range ids {
		fmt.Printf("  %v hears %v\n", v, g.Neighbors(v))
	}

	// Run the group service over the static urban topology.
	s := grp.NewStaticSim(grp.SimParams{Cfg: grp.Config{Dmax: dmax}, Seed: 1}, g)
	rounds, ok := grp.RunUntilConverged(s, dmax, 400, 3)
	fmt.Printf("\nconverged=%v after %d rounds\n", ok, rounds)
	for _, group := range grp.SnapshotOf(s).Groups() {
		fmt.Println("  group:", group)
	}
	fmt.Println("\nvehicles group along streets; the buildings keep diagonal")
	fmt.Println("neighbors apart even though they are geometrically close.")
}
