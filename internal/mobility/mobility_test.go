package mobility

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/space"
)

func nodes(n int) []ident.NodeID {
	out := make([]ident.NodeID, n)
	for i := range out {
		out[i] = ident.NodeID(i + 1)
	}
	return out
}

func TestStaticNeverMoves(t *testing.T) {
	w := space.NewWorld(5)
	m := &Static{Side: 10}
	rng := rand.New(rand.NewSource(1))
	m.Init(w, nodes(5), rng)
	before := snapshot(w)
	for i := 0; i < 10; i++ {
		m.Step(w, 1, rng)
	}
	for v, p := range before {
		if got, _ := w.Pos(v); got != p {
			t.Fatalf("node %v moved", v)
		}
	}
}

func TestStaticJitterStaysInBounds(t *testing.T) {
	w := space.NewWorld(5)
	m := &Static{Side: 10, Jitter: 3}
	rng := rand.New(rand.NewSource(1))
	m.Init(w, nodes(8), rng)
	for i := 0; i < 50; i++ {
		m.Step(w, 1, rng)
	}
	checkBounds(t, w, 10)
}

func TestWaypointMovesTowardDestAtBoundedSpeed(t *testing.T) {
	w := space.NewWorld(5)
	m := &Waypoint{Side: 100, SpeedMin: 1, SpeedMax: 2}
	rng := rand.New(rand.NewSource(42))
	m.Init(w, nodes(6), rng)
	prev := snapshot(w)
	for i := 0; i < 200; i++ {
		m.Step(w, 1, rng)
		for v, pp := range prev {
			cur, _ := w.Pos(v)
			if d := pp.Dist(cur); d > 2.0001 {
				t.Fatalf("node %v moved %v > max speed", v, d)
			}
		}
		prev = snapshot(w)
		checkBounds(t, w, 100)
	}
}

func TestWaypointPause(t *testing.T) {
	w := space.NewWorld(5)
	m := &Waypoint{Side: 4, SpeedMin: 10, SpeedMax: 10, Pause: 5}
	rng := rand.New(rand.NewSource(3))
	m.Init(w, nodes(1), rng)
	// Speed 10 in a 4×4 box: the node reaches its destination on the first
	// step, then pauses; with pause 5 it must be stationary for ≥4 steps.
	m.Step(w, 1, rng)
	p1, _ := w.Pos(1)
	still := 0
	for i := 0; i < 5; i++ {
		m.Step(w, 1, rng)
		p2, _ := w.Pos(1)
		if p1 == p2 {
			still++
		}
		p1 = p2
	}
	if still < 4 {
		t.Fatalf("expected ≥4 stationary steps during pause, got %d", still)
	}
}

func TestHighwayWrapsAndKeepsLanes(t *testing.T) {
	w := space.NewWorld(5)
	m := &Highway{Length: 100, Lanes: 3, LaneGap: 5, SpeedMin: 10, SpeedMax: 30}
	rng := rand.New(rand.NewSource(1))
	m.Init(w, nodes(9), rng)
	lanes := map[ident.NodeID]float64{}
	for _, v := range w.Nodes() {
		p, _ := w.Pos(v)
		lanes[v] = p.Y
	}
	for i := 0; i < 50; i++ {
		m.Step(w, 1, rng)
		for _, v := range w.Nodes() {
			p, _ := w.Pos(v)
			if p.X < 0 || p.X >= 100 {
				t.Fatalf("x out of wrap range: %v", p.X)
			}
			if p.Y != lanes[v] {
				t.Fatal("lane changed")
			}
		}
	}
}

func TestConvoyRigidUntilStraggler(t *testing.T) {
	w := space.NewWorld(5)
	m := &Convoy{Spacing: 3, Speed: 10, StragglerEvery: 5, StragglerSlowdown: 4}
	rng := rand.New(rand.NewSource(1))
	m.Init(w, nodes(4), rng)
	gap := func() float64 {
		a, _ := w.Pos(1)
		b, _ := w.Pos(2)
		return a.Dist(b)
	}
	g0 := gap()
	for i := 0; i < 4; i++ {
		m.Step(w, 1, rng)
		if gap() != g0 {
			t.Fatal("convoy must be rigid before straggler brakes")
		}
	}
	for i := 0; i < 5; i++ {
		m.Step(w, 1, rng)
	}
	if gap() <= g0 {
		t.Fatal("straggler must fall behind")
	}
}

func TestGroupsKeepMembersNearCenters(t *testing.T) {
	w := space.NewWorld(5)
	m := &Groups{Side: 100, SpeedMin: 1, SpeedMax: 2, NumGroups: 3, Radius: 4}
	rng := rand.New(rand.NewSource(5))
	m.Init(w, nodes(12), rng)
	for i := 0; i < 30; i++ {
		m.Step(w, 1, rng)
	}
	// Members of the same group must be within 2*Radius of each other.
	for i, u := range w.Nodes() {
		for _, v := range w.Nodes()[i+1:] {
			gu, _ := m.group.Get(u)
			gv, _ := m.group.Get(v)
			if gu != gv {
				continue
			}
			pu, _ := w.Pos(u)
			pv, _ := w.Pos(v)
			if pu.Dist(pv) > 8.0001 {
				t.Fatalf("group members too far: %v", pu.Dist(pv))
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() map[ident.NodeID]space.Point {
		w := space.NewWorld(5)
		m := &Waypoint{Side: 50, SpeedMin: 1, SpeedMax: 3, Pause: 1}
		rng := rand.New(rand.NewSource(99))
		m.Init(w, nodes(10), rng)
		for i := 0; i < 50; i++ {
			m.Step(w, 0.5, rng)
		}
		return snapshot(w)
	}
	a, b := run(), run()
	for v, p := range a {
		if b[v] != p {
			t.Fatal("same seed must reproduce trajectories")
		}
	}
}

func snapshot(w *space.World) map[ident.NodeID]space.Point {
	out := make(map[ident.NodeID]space.Point)
	for _, v := range w.Nodes() {
		p, _ := w.Pos(v)
		out[v] = p
	}
	return out
}

func checkBounds(t *testing.T, w *space.World, side float64) {
	t.Helper()
	for _, v := range w.Nodes() {
		p, _ := w.Pos(v)
		if p.X < -0.0001 || p.X > side+0.0001 || p.Y < -0.0001 || p.Y > side+0.0001 {
			t.Fatalf("node %v out of bounds: %v", v, p)
		}
	}
}

func TestRingRoadContinuousDistances(t *testing.T) {
	w := space.NewWorld(5)
	m := &RingRoad{Length: 60, Lanes: 2, LaneGap: 2, SpeedMin: 10, SpeedMax: 12}
	rng := rand.New(rand.NewSource(4))
	m.Init(w, nodes(8), rng)
	// Per-step displacement must stay bounded by max speed (no wrap
	// teleports, the defect of the straight Highway model).
	prev := snapshot(w)
	for i := 0; i < 200; i++ {
		m.Step(w, 0.05, rng)
		for v, p := range prev {
			cur, _ := w.Pos(v)
			if d := p.Dist(cur); d > 12*0.05+1e-9 {
				t.Fatalf("node %v jumped %v in one step", v, d)
			}
		}
		prev = snapshot(w)
	}
}

func TestRingRoadLanesConcentric(t *testing.T) {
	w := space.NewWorld(5)
	m := &RingRoad{Length: 60, Lanes: 2, LaneGap: 2, SpeedMin: 10, SpeedMax: 10}
	m.Init(w, nodes(4), rand.New(rand.NewSource(1)))
	radius := 60.0 / (2 * 3.14159265358979)
	for i, v := range w.Nodes() {
		p, _ := w.Pos(v)
		dist := (space.Point{}).Dist(p)
		wantR := radius + float64(int(i)%2)*2
		if dist < wantR-0.01 || dist > wantR+0.01 {
			t.Fatalf("node %v radius %v, want %v", v, dist, wantR)
		}
	}
}
