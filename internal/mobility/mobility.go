// Package mobility provides the node movement models driving the dynamic
// topologies: static placement, random waypoint, a VANET-style
// highway convoy, and reference-point group mobility. All models are
// deterministic for a given rng and advance in discrete time steps.
//
// Step iterates the world's cached roster (space.World.Nodes is an
// incrementally maintained sorted slice, not a per-call sort), and a
// Place at an unchanged position is a no-op that leaves the world
// generation — and with it every downstream topology cache — untouched.
// Models therefore Step with dt == 0 as a pure no-op (no RNG draws
// either, so a zero-DT tick cannot perturb the trace).
//
// A product that feeds a sum is wrapped in float64(…), and so is an
// rng.Float64() whose own scaling would fuse with the next add: the Go
// spec lets a compiler fuse x*y + z into one rounding, gc does on arm64,
// ppc64le, s390x and riscv64 and never on amd64, and the conversion keeps
// every product rounded on its own (space.hypot says why). So a position
// is the same on every target; scripts/fma.sh holds the package at zero
// fused opcodes.
package mobility

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/ident"
	"repro/internal/space"
)

// Model places nodes and moves them step by step.
type Model interface {
	// Init sets initial positions for the given nodes.
	Init(w *space.World, nodes []ident.NodeID, rng *rand.Rand)
	// Step advances every node by dt time units.
	Step(w *space.World, dt float64, rng *rand.Rand)
}

// Static scatters nodes uniformly in a Side×Side square and never moves
// them. With Jitter > 0, Step wobbles each node by at most Jitter per step
// (useful for "almost static" link-flap studies).
type Static struct {
	Side   float64
	Jitter float64
}

// Init implements Model.
func (s *Static) Init(w *space.World, nodes []ident.NodeID, rng *rand.Rand) {
	for _, v := range nodes {
		w.Place(v, space.Point{X: rng.Float64() * s.Side, Y: rng.Float64() * s.Side})
	}
}

// Step implements Model.
func (s *Static) Step(w *space.World, dt float64, rng *rand.Rand) {
	if s.Jitter == 0 || dt == 0 {
		return
	}
	for _, v := range w.Nodes() {
		p, _ := w.Pos(v)
		w.Place(v, clamp(p.Add(float64((float64(rng.Float64())*2-1)*s.Jitter), float64((float64(rng.Float64())*2-1)*s.Jitter)), s.Side))
	}
}

// Waypoint is the classic random-waypoint model in a Side×Side square:
// each node picks a uniform destination and speed in [SpeedMin, SpeedMax],
// travels there, pauses Pause time units, repeats.
type Waypoint struct {
	Side, SpeedMin, SpeedMax, Pause float64

	state ident.Table[wpState]
}

type wpState struct {
	dest    space.Point
	speed   float64
	pausing float64
}

// Init implements Model.
func (m *Waypoint) Init(w *space.World, nodes []ident.NodeID, rng *rand.Rand) {
	m.state = ident.Table[wpState]{}
	for _, v := range nodes {
		w.Place(v, space.Point{X: rng.Float64() * m.Side, Y: rng.Float64() * m.Side})
		m.state.Set(v, m.newLeg(rng))
	}
}

func (m *Waypoint) newLeg(rng *rand.Rand) wpState {
	return wpState{
		dest:  space.Point{X: rng.Float64() * m.Side, Y: rng.Float64() * m.Side},
		speed: m.SpeedMin + float64(rng.Float64()*(m.SpeedMax-m.SpeedMin)),
	}
}

// Step implements Model.
func (m *Waypoint) Step(w *space.World, dt float64, rng *rand.Rand) {
	if dt == 0 {
		return
	}
	for _, v := range w.Nodes() {
		m.stepNode(w, v, dt, rng)
	}
}

// stepNode advances one node by dt along its current leg (drawing a new
// leg on arrival) — the per-node body shared by Waypoint and the models
// that move only a subset (Commuter).
func (m *Waypoint) stepNode(w *space.World, v ident.NodeID, dt float64, rng *rand.Rand) {
	st := m.state.Ref(v)
	if st == nil {
		m.state.Set(v, m.newLeg(rng))
		st = m.state.Ref(v)
	}
	if st.pausing > 0 {
		st.pausing -= dt
		return
	}
	p, _ := w.Pos(v)
	d := p.Dist(st.dest)
	travel := st.speed * dt
	if travel >= d {
		w.Place(v, st.dest)
		*st = m.newLeg(rng)
		st.pausing = m.Pause
		return
	}
	w.Place(v, p.Add(float64((st.dest.X-p.X)/d*travel), float64((st.dest.Y-p.Y)/d*travel)))
}

// Highway is a VANET-style multi-lane road of length Length. Vehicles keep
// a per-vehicle speed drawn from [SpeedMin, SpeedMax] (lane-dependent bias:
// higher lanes drive faster) and wrap around, so relative speeds — the
// source of topology change — stay bounded while absolute motion is
// continuous. Lane spacing is LaneGap.
type Highway struct {
	Length             float64
	Lanes              int
	LaneGap            float64
	SpeedMin, SpeedMax float64

	speed ident.Table[float64]
}

// Init implements Model.
func (m *Highway) Init(w *space.World, nodes []ident.NodeID, rng *rand.Rand) {
	if m.Lanes <= 0 {
		m.Lanes = 1
	}
	m.speed = ident.Table[float64]{}
	for i, v := range nodes {
		lane := i % m.Lanes
		base := m.SpeedMin + (m.SpeedMax-m.SpeedMin)*float64(lane)/float64(m.Lanes)
		span := (m.SpeedMax - m.SpeedMin) / float64(m.Lanes)
		m.speed.Set(v, base+float64(rng.Float64()*span))
		w.Place(v, space.Point{X: rng.Float64() * m.Length, Y: float64(lane) * m.LaneGap})
	}
}

// Step implements Model.
func (m *Highway) Step(w *space.World, dt float64, rng *rand.Rand) {
	if dt == 0 {
		return
	}
	for _, v := range w.Nodes() {
		p, _ := w.Pos(v)
		speed, _ := m.speed.Get(v)
		x := math.Mod(p.X+float64(speed*dt), m.Length)
		if x < 0 {
			x += m.Length
		}
		w.Place(v, space.Point{X: x, Y: p.Y})
	}
}

// Convoy places nodes as a platoon of vehicles with identical speed and
// fixed spacing; the whole platoon translates rigidly, so the topology is
// invariant — the ideal ΠT-preserving mobility. With StragglerEvery > 0,
// every StragglerEvery time units the tail vehicle brakes by
// StragglerSlowdown, eventually stretching the platoon beyond radio range —
// the controlled ΠT violation used by the continuity experiments.
type Convoy struct {
	Spacing, Speed    float64
	StragglerEvery    float64
	StragglerSlowdown float64

	tail    ident.NodeID
	elapsed float64
	braked  bool
}

// Init implements Model.
func (m *Convoy) Init(w *space.World, nodes []ident.NodeID, rng *rand.Rand) {
	for i, v := range nodes {
		w.Place(v, space.Point{X: float64(i) * m.Spacing, Y: 0})
		m.tail = v
	}
	if len(nodes) > 0 {
		m.tail = nodes[0] // lowest-x vehicle trails the convoy
	}
}

// Step implements Model.
func (m *Convoy) Step(w *space.World, dt float64, rng *rand.Rand) {
	if dt == 0 {
		return
	}
	m.elapsed += dt
	if m.StragglerEvery > 0 && m.elapsed >= m.StragglerEvery {
		m.braked = true
	}
	for _, v := range w.Nodes() {
		p, _ := w.Pos(v)
		sp := m.Speed
		if m.braked && v == m.tail {
			sp -= m.StragglerSlowdown
		}
		w.Place(v, p.Add(float64(sp*dt), 0))
	}
}

// Groups is reference-point group mobility: group centers follow a
// Waypoint model; members stay within Radius of their center with a small
// independent jitter. Membership is by node order: node i belongs to group
// i % NumGroups.
type Groups struct {
	Side, SpeedMin, SpeedMax float64
	NumGroups                int
	Radius                   float64

	centers  *Waypoint
	centerID []ident.NodeID
	group    ident.Table[int]
	cw       *space.World
}

// Init implements Model.
func (m *Groups) Init(w *space.World, nodes []ident.NodeID, rng *rand.Rand) {
	if m.NumGroups <= 0 {
		m.NumGroups = 1
	}
	m.centers = &Waypoint{Side: m.Side, SpeedMin: m.SpeedMin, SpeedMax: m.SpeedMax}
	m.cw = space.NewWorld(0)
	m.centerID = make([]ident.NodeID, m.NumGroups)
	for i := range m.centerID {
		m.centerID[i] = ident.NodeID(i + 1)
	}
	m.centers.Init(m.cw, m.centerID, rng)
	m.group = ident.Table[int]{}
	for i, v := range nodes {
		m.group.Set(v, i%m.NumGroups)
		c, _ := m.cw.Pos(m.centerID[i%m.NumGroups])
		w.Place(v, jitterAround(c, m.Radius, rng))
	}
}

// Step implements Model.
func (m *Groups) Step(w *space.World, dt float64, rng *rand.Rand) {
	if dt == 0 {
		return
	}
	m.centers.Step(m.cw, dt, rng)
	for _, v := range w.Nodes() {
		g, _ := m.group.Get(v)
		c, _ := m.cw.Pos(m.centerID[g])
		w.Place(v, jitterAround(c, m.Radius, rng))
	}
}

func jitterAround(c space.Point, radius float64, rng *rand.Rand) space.Point {
	ang := float64(rng.Float64()) * 2 * math.Pi
	r := rng.Float64() * radius
	return c.Add(float64(math.Cos(ang)*r), float64(math.Sin(ang)*r))
}

func clamp(p space.Point, side float64) space.Point {
	return space.Point{
		X: math.Min(math.Max(p.X, 0), side),
		Y: math.Min(math.Max(p.Y, 0), side),
	}
}

// RingRoad is a circular road: vehicles drive at per-vehicle speeds along
// a circle of circumference Length, with lanes as concentric circles
// LaneGap apart. Unlike Highway (a straight road with modular wrap, whose
// Euclidean wrap discontinuity breaks links artificially), distances on
// the ring are continuous — the clean model for long steady-state
// mobility studies like the group-lifetime experiment.
type RingRoad struct {
	Length             float64
	Lanes              int
	LaneGap            float64
	SpeedMin, SpeedMax float64
	// Opposing reverses the direction of odd lanes — oncoming traffic,
	// the classic VANET source of fleeting radio contacts.
	Opposing bool

	state ident.Table[ringState]
}

type ringState struct {
	angSpeed float64 // angular speed (rad per time unit)
	angle    float64
	lane     int
}

// Init implements Model.
func (m *RingRoad) Init(w *space.World, nodes []ident.NodeID, rng *rand.Rand) {
	if m.Lanes <= 0 {
		m.Lanes = 1
	}
	radius := m.Length / (2 * math.Pi)
	m.state = ident.Table[ringState]{}
	for i, v := range nodes {
		lane := i % m.Lanes
		base := m.SpeedMin + (m.SpeedMax-m.SpeedMin)*float64(lane)/float64(m.Lanes)
		span := (m.SpeedMax - m.SpeedMin) / float64(m.Lanes)
		speed := base + float64(rng.Float64()*span)
		// Angular speed uses the vehicle's own lane radius, so the
		// linear speed equals the drawn speed regardless of lane.
		st := ringState{angSpeed: speed / (radius + float64(float64(lane)*m.LaneGap)), lane: lane}
		if m.Opposing && lane%2 == 1 {
			st.angSpeed = -st.angSpeed
		}
		st.angle = float64(rng.Float64()) * 2 * math.Pi
		m.state.Set(v, st)
		m.place(w, v, st, radius)
	}
}

// Step implements Model.
func (m *RingRoad) Step(w *space.World, dt float64, rng *rand.Rand) {
	if dt == 0 {
		return
	}
	radius := m.Length / (2 * math.Pi)
	for _, v := range w.Nodes() {
		st, _ := m.state.Get(v)
		st.angle = math.Mod(st.angle+float64(st.angSpeed*dt), 2*math.Pi)
		m.state.Set(v, st)
		m.place(w, v, st, radius)
	}
}

func (m *RingRoad) place(w *space.World, v ident.NodeID, st ringState, radius float64) {
	r := radius + float64(float64(st.lane)*m.LaneGap)
	w.Place(v, space.Point{X: r * math.Cos(st.angle), Y: r * math.Sin(st.angle)})
}

// Commuter models a mostly-parked population: a fixed ActiveFraction of
// the nodes drive random-waypoint journeys while the rest stay parked
// where they were placed (a sensor field with a few mobile collectors, a
// parking lot with a trickle of traffic). Because only the commuters ever
// move, the per-tick dirty set the spatial index tracks stays small and
// the delta-incremental SymmetricGraph rebuild applies every tick — this
// is the mobility regime the ApplyDelta path is built for, where the
// all-moving Waypoint regime always falls back to the full rebuild.
type Commuter struct {
	Side, SpeedMin, SpeedMax, Pause float64
	// ActiveFraction is the fraction of nodes that commute (clamped to
	// [0,1]); the default 0 parks everyone.
	ActiveFraction float64

	wp     Waypoint
	movers []ident.NodeID // the commuting subset, ascending
}

// Init implements Model: places everyone uniformly and draws the
// commuting subset deterministically from rng (every k-th node of a
// shuffled order, so the subset is unbiased across IDs).
func (m *Commuter) Init(w *space.World, nodes []ident.NodeID, rng *rand.Rand) {
	m.wp = Waypoint{Side: m.Side, SpeedMin: m.SpeedMin, SpeedMax: m.SpeedMax, Pause: m.Pause}
	f := m.ActiveFraction
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	k := int(f * float64(len(nodes)))
	perm := rng.Perm(len(nodes))
	m.movers = make([]ident.NodeID, k)
	for j, i := range perm[:k] {
		m.movers[j] = nodes[i]
	}
	slices.Sort(m.movers)
	// Waypoint.Init places every node and assigns legs; parked nodes
	// simply never execute theirs.
	m.wp.Init(w, nodes, rng)
}

// Step implements Model: advances only the commuting subset through the
// shared waypoint leg logic, drawing exactly one leg's worth of
// randomness per arriving commuter (parked nodes consume no RNG, so
// traces are independent of the parked count). A commuter that has left
// the world is skipped until it is back.
func (m *Commuter) Step(w *space.World, dt float64, rng *rand.Rand) {
	if dt == 0 {
		return
	}
	for _, v := range m.movers {
		if _, ok := w.Pos(v); ok {
			m.wp.stepNode(w, v, dt, rng)
		}
	}
}
