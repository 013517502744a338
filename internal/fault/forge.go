// State and message forging: the generators behind crash-recover
// corruption and Byzantine lies. Both are pure functions of an injector
// RNG plus the engine's current (deterministically ordered) membership,
// so a seed reproduces every forged state and frame bit for bit.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/antlist"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/priority"
	"repro/internal/wire"
)

// FabricatedBase is the low end of the fabricated-ID range Byzantine and
// corrupted antlists cite: far above any ID a driver hands out (soak
// joins count up from the initial population), so a phantom member can
// never collide with a node that later actually joins.
const FabricatedBase ident.NodeID = 1 << 30

// fabricate returns a phantom node ID.
func fabricate(rng *rand.Rand) ident.NodeID {
	return FabricatedBase + ident.NodeID(rng.Intn(1<<16))
}

// randomEntry draws a list entry: a real member or a phantom, mostly
// plain, occasionally mid-handshake (single/double marks — a crashed node
// may have died mid-rejection).
func randomEntry(rng *rand.Rand, members []ident.NodeID) ident.Entry {
	var id ident.NodeID
	if len(members) > 0 && rng.Float64() < 0.7 {
		id = members[rng.Intn(len(members))]
	} else {
		id = fabricate(rng)
	}
	switch rng.Intn(10) {
	case 0:
		return ident.Single(id)
	case 1:
		return ident.Double(id)
	default:
		return ident.Plain(id)
	}
}

// corruptState draws an adversarial protocol state for v — the paper's
// "arbitrary initial state" premise made concrete: a bogus antlist (up to
// Dmax+2 layers, so over-long lists exercise the trim), phantom view
// members, random quarantine counters, and a stale or futuristic self
// priority. The caller loads it with core.Node.LoadState.
func corruptState(rng *rand.Rand, v ident.NodeID, members []ident.NodeID, dmax int) (antlist.List, map[ident.NodeID]bool, map[ident.NodeID]int, priority.P) {
	depth := 1 + rng.Intn(dmax+2)
	sets := make([]antlist.Set, 0, depth)
	sets = append(sets, antlist.NewSet(ident.Plain(v)))
	for i := 1; i < depth; i++ {
		s := antlist.NewSet()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			s = s.Add(randomEntry(rng, members))
		}
		sets = append(sets, s)
	}
	list := antlist.FromSets(sets...)

	view := map[ident.NodeID]bool{v: true}
	quar := map[ident.NodeID]int{}
	for _, id := range list.IDs() {
		if id == v {
			continue
		}
		if rng.Float64() < 0.5 {
			view[id] = true
		}
		if rng.Float64() < 0.5 {
			quar[id] = rng.Intn(dmax + 1)
		}
	}

	// A clock far in the past (0) claims seniority it never earned; one
	// far in the future starves the node in every contest. Both are states
	// a recovering node must converge out of.
	clock := uint64(0)
	if rng.Float64() < 0.5 {
		clock = uint64(rng.Int63n(1 << 40))
	}
	return list, view, quar, priority.Of(clock, v)
}

// forgeLie assembles a falsified broadcast for liar v: layer 0 is v
// itself and layer 1 is v's genuine current neighborhood — so the frame
// passes every receiver's good-list test and is indistinguishable from
// honest traffic at the wire level — while the deeper layers cite phantom
// ancestors, the per-node priorities are fabricated, the advertised group
// priority claims a near-zero clock (it wins almost every merge contest),
// and phantom members arrive with a zero quarantine so receivers admit
// them almost immediately.
//
// The lie is round-tripped through the wire codec before use: whatever
// the engine injects is, by construction, exactly what a real radio frame
// could have carried (the satellite fuzz target pins that hostile frames
// cannot produce anything the decoder wouldn't).
func forgeLie(rng *rand.Rand, v ident.NodeID, neighbors, members []ident.NodeID, dmax int) *core.Message {
	sets := make([]antlist.Set, 0, dmax+1)
	sets = append(sets, antlist.NewSet(ident.Plain(v)))
	l1 := antlist.NewSet()
	for _, u := range neighbors {
		l1 = l1.Add(ident.Plain(u))
	}
	if len(l1) == 0 {
		// An isolated liar has no receivers; keep the frame well-formed
		// anyway (no empty layers — they would void the whole list).
		l1 = l1.Add(ident.Plain(fabricate(rng)))
	}
	sets = append(sets, l1)
	extra := 0
	if dmax > 0 {
		extra = rng.Intn(dmax)
	}
	for i := 2; i < 2+extra; i++ {
		s := antlist.NewSet()
		for k := 1 + rng.Intn(2); k > 0; k-- {
			s = s.Add(randomEntry(rng, members))
		}
		sets = append(sets, s)
	}
	list := antlist.FromSets(sets...)

	prios := make(map[ident.NodeID]priority.P)
	gprios := make(map[ident.NodeID]priority.P)
	quars := make(map[ident.NodeID]int)
	for _, id := range list.IDs() {
		prios[id] = priority.Of(uint64(rng.Int63n(1<<20)), id)
		gprios[id] = priority.Of(uint64(rng.Intn(3)), v)
		if id >= FabricatedBase {
			quars[id] = 0
		}
	}

	m := core.Message{
		From:      v,
		List:      list,
		Recs:      core.RecsFromMaps(list, prios, gprios, quars),
		GroupPrio: priority.Of(uint64(rng.Intn(3)), v),
	}
	frame := wire.Encode(m)
	decoded, err := wire.Decode(frame)
	if err != nil {
		panic(fmt.Sprintf("fault: forged lie failed its own wire round-trip: %v", err))
	}
	return &decoded
}
