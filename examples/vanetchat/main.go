// VANET chat: the paper's infotainment motivation. Every vehicle runs a
// GRP node; a chat application on every vehicle sends messages to exactly
// the members of its current view. Because of the agreement property,
// chat rooms are consistent; because of the diameter bound, they stay
// responsive (≤ Dmax hops); because of continuity, a room never silently
// loses a member while the vehicles stay in range. The platoon runs on the
// deterministic simulator, so a fixed seed prints the same rooms every
// time.
package main

import (
	"fmt"

	grp "repro"
)

const dmax = 2

// chatRoom is the trivial application layer: it addresses messages to the
// current view, which GRP keeps consistent across members.
type chatRoom struct {
	sim *grp.Sim
	me  grp.NodeID
}

func (c chatRoom) say(text string) {
	fmt.Printf("  %v → %v: %q\n", c.me, c.sim.Node(c.me).View(), text)
}

// settle runs the platoon until its rooms are legitimate and lists them.
func settle(s *grp.Sim) {
	rounds, ok := grp.RunUntilConverged(s, dmax, 200, 3)
	fmt.Printf("  converged=%v after %d rounds\n", ok, rounds)
	for _, v := range s.Order() {
		fmt.Printf("  vehicle %v is in room %v\n", v, s.Node(v).View())
	}
}

func main() {
	// Five vehicles in radio range of their neighbors: a platoon.
	road := &grp.StaticTopology{G: grp.Line(5)}
	s := grp.NewSim(grp.SimParams{Cfg: grp.Config{Dmax: dmax}, Seed: 1}, road)

	fmt.Println("== waiting for the platoon's chat rooms to form ==")
	settle(s)

	fmt.Println("\n== chatting ==")
	chatRoom{s, 2}.say("anyone up ahead?")
	chatRoom{s, 4}.say("traffic jam at the bridge")

	// Vehicle 5 exits the highway: its room must shed it (excused by the
	// topology change), the remaining members keep chatting.
	fmt.Println("\n== vehicle 5 takes the exit ==")
	s.RemoveNode(5)
	road.Edit(func(g *grp.GraphEdit) { g.RemoveNode(5) })
	settle(s)
	chatRoom{s, 4}.say("looks like n5 left")
}
