package space

import (
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
)

func TestCanReachUnitDisk(t *testing.T) {
	w := NewWorld(5)
	w.Place(1, Point{0, 0})
	w.Place(2, Point{3, 4}) // dist 5
	w.Place(3, Point{6, 8}) // dist 10
	if !w.CanReach(1, 2) || !w.CanReach(2, 1) {
		t.Fatal("nodes at exactly range must reach")
	}
	if w.CanReach(1, 3) || w.CanReach(3, 1) {
		t.Fatal("out of range must not reach")
	}
	if w.CanReach(1, 1) {
		t.Fatal("self reach must be false")
	}
	if w.CanReach(1, 99) || w.CanReach(99, 1) {
		t.Fatal("absent node must not reach")
	}
}

func TestWallBlocksLink(t *testing.T) {
	w := NewWorld(10)
	w.Place(1, Point{0, 0})
	w.Place(2, Point{4, 0})
	w.Walls = []Segment{{Point{2, -1}, Point{2, 1}}}
	if w.CanReach(1, 2) {
		t.Fatal("wall must block the link")
	}
	w.Walls = []Segment{{Point{2, 1}, Point{2, 3}}}
	if !w.CanReach(1, 2) {
		t.Fatal("wall off the line must not block")
	}
}

func TestWallTouchingEndpointBlocks(t *testing.T) {
	w := NewWorld(10)
	w.Place(1, Point{0, 0})
	w.Place(2, Point{4, 0})
	w.Walls = []Segment{{Point{4, 0}, Point{4, 5}}}
	if w.CanReach(1, 2) {
		t.Fatal("wall touching receiver blocks (conservative)")
	}
}

func TestSymmetricGraphLine(t *testing.T) {
	w := NewWorld(1.5)
	for i := 1; i <= 4; i++ {
		w.Place(ident.NodeID(i), Point{float64(i), 0})
	}
	g := w.SymmetricGraph()
	if g.NumEdges() != 3 || !g.HasEdge(1, 2) || g.HasEdge(1, 3) {
		t.Fatalf("line graph wrong: %v", g)
	}
}

func TestReceiversAndRemove(t *testing.T) {
	w := NewWorld(2)
	w.Place(1, Point{0, 0})
	w.Place(2, Point{1, 0})
	w.Place(3, Point{2, 0})
	got := w.SymmetricGraph().NeighborsView(1)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("row of 1 = %v", got)
	}
	w.Remove(3)
	if got := w.SymmetricGraph().NeighborsView(1); len(got) != 1 {
		t.Fatalf("after remove: %v", got)
	}
	if _, ok := w.Pos(3); ok {
		t.Fatal("removed node still present")
	}
}

func TestPointHelpers(t *testing.T) {
	p := Point{1, 2}.Add(3, 4)
	if p != (Point{4, 6}) {
		t.Fatalf("Add = %v", p)
	}
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %v", d)
	}
}

// TestHypotMatchesMath pins hypot to math.Hypot: its special cases on
// every target, and its bits on amd64, where math.Hypot runs the same
// sequence unfused. Elsewhere math.Hypot may fuse, and hypot is the
// reference.
func TestHypotMatchesMath(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range [][2]float64{{inf, nan}, {nan, -inf}, {nan, 1}, {0, nan}, {0, 0}, {-0.0, 0}, {3, -4}, {-1e308, 1e308}, {5e-324, 5e-324}} {
		got, want := hypot(c[0], c[1]), math.Hypot(c[0], c[1])
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("hypot(%v, %v) = %v, math.Hypot %v", c[0], c[1], got, want)
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Hypot may fuse on %s: the special cases are the comparison", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(1))
	draws := []func() float64{
		func() float64 { return 200 * (rng.Float64() - 0.5) },
		rng.NormFloat64,
		func() float64 { return math.Float64frombits(rng.Uint64()) },
	}
	for i := 0; i < 300000; i++ {
		draw := draws[i%len(draws)]
		p, q := draw(), draw()
		if got, want := hypot(p, q), math.Hypot(p, q); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("hypot(%v, %v) = %v, math.Hypot %v", p, q, got, want)
		}
	}
}

// --- spatial-hash index vs brute-force oracle -------------------------

// bruteCanReach replicates the pre-index vicinity relation: distance
// against the range and a linear scan over every wall. It is the oracle
// the grid is property-tested against.
func bruteCanReach(w *World, u, v ident.NodeID) bool {
	if u == v {
		return false
	}
	pu, ok := w.pos.Get(u)
	if !ok {
		return false
	}
	pv, ok := w.pos.Get(v)
	if !ok {
		return false
	}
	if pu.Dist(pv) > w.Range {
		return false
	}
	for _, wall := range w.Walls {
		if segmentsCross(pu, pv, wall.A, wall.B) {
			return false
		}
	}
	return true
}

// bruteSymmetricGraph is the old all-pairs O(n²) build.
func bruteSymmetricGraph(w *World) *graph.G {
	r := graph.NewRef()
	nodes := w.Nodes()
	for _, v := range nodes {
		r.AddNode(v)
	}
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			if bruteCanReach(w, u, v) && bruteCanReach(w, v, u) {
				r.AddEdge(u, v)
			}
		}
	}
	return graph.FromRef(r)
}

// checkAgainstOracle compares the grid-served SymmetricGraph and CanReach
// with the brute-force oracle on the world's current state.
func checkAgainstOracle(t *testing.T, w *World, label string) {
	t.Helper()
	got, want := w.SymmetricGraph(), bruteSymmetricGraph(w)
	if !got.Equal(want) {
		t.Fatalf("%s: SymmetricGraph mismatch: grid %v, brute %v", label, got, want)
	}
	nodes := append([]ident.NodeID(nil), w.Nodes()...)
	for _, u := range nodes {
		for _, v := range nodes {
			if w.CanReach(u, v) != bruteCanReach(w, u, v) {
				t.Fatalf("%s: CanReach(%d,%d) disagrees with oracle", label, u, v)
			}
		}
	}
}

// TestGridMatchesBruteForce property-tests the spatial index against the
// brute-force oracle on random worlds: random positions (including
// negative coordinates) and random walls, then incremental churn — moves,
// removals, joins, and structural reconfiguration.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 25; iter++ {
		n := 5 + rng.Intn(70)
		side := 4 + rng.Float64()*30
		w := NewWorld(0.5 + rng.Float64()*5)
		for i := 0; i < rng.Intn(6); i++ {
			a := Point{rng.Float64()*side - side/2, rng.Float64()*side - side/2}
			w.Walls = append(w.Walls, Segment{a, a.Add(rng.Float64()*side/2, rng.Float64()*side/2)})
		}
		for v := 1; v <= n; v++ {
			w.Place(ident.NodeID(v), Point{rng.Float64()*side - side/2, rng.Float64()*side - side/2})
		}
		checkAgainstOracle(t, w, "fresh")

		// Incremental churn: move a third, remove a few, add a few.
		for v := 1; v <= n; v++ {
			switch rng.Intn(3) {
			case 0:
				w.Place(ident.NodeID(v), Point{rng.Float64()*side - side/2, rng.Float64()*side - side/2})
			case 1:
				if rng.Intn(4) == 0 {
					w.Remove(ident.NodeID(v))
				}
			}
		}
		for v := n + 1; v <= n+3; v++ {
			w.Place(ident.NodeID(v), Point{rng.Float64()*side - side/2, rng.Float64()*side - side/2})
		}
		checkAgainstOracle(t, w, "churned")

		// Structural change mid-life: new walls (reassignment, caught by
		// the walls fingerprint), then a new range (in place, so
		// Invalidate; the cell size follows it).
		w.Walls = append(w.Walls[:0:0], Segment{Point{-side, 0}, Point{side, 0}})
		checkAgainstOracle(t, w, "reconfigured")
		w.Range = 0.5 + rng.Float64()*5
		w.Invalidate()
		checkAgainstOracle(t, w, "range-changed")
	}
}

// TestEmptiedCellSliceIsReused pins gridInsert's free list: a node leaving
// a bucket empty and entering an empty one takes the emptied slice along, a
// bucket already occupied keeps its own, and the vicinity queries stay right.
func TestEmptiedCellSliceIsReused(t *testing.T) {
	w := NewWorld(1)
	w.Place(1, Point{0.5, 0.5})
	w.Place(2, Point{7.5, 0.5})
	w.Place(3, Point{7.6, 0.5})
	checkAgainstOracle(t, w, "built")
	occupied := func() (n int) {
		for _, lst := range w.cells {
			if len(lst) > 0 {
				n++
			}
		}
		return n
	}
	at := func(v ident.NodeID) []cellNode { p, _ := w.Pos(v); return w.cells[w.bucketAt(p)] }
	was := &at(1)[0]
	w.Place(1, Point{3.5, 3.5})
	if now := &at(1)[0]; now != was || occupied() != 2 || len(w.freeCells) != 0 {
		t.Fatalf("entered an empty bucket: slice reused %v, %d buckets, %d free", now == was, occupied(), len(w.freeCells))
	}
	w.Place(1, Point{7.4, 0.4})
	if lst := at(1); len(lst) != 3 || len(w.freeCells) != 1 {
		t.Fatalf("joined an occupied bucket: %v, %d free", lst, len(w.freeCells))
	}
	checkAgainstOracle(t, w, "hopped")
}

// TestGridParallelBuildMatchesSequential pins the determinism of the
// sharded SymmetricGraph build: identical edge sets at any worker width.
func TestGridParallelBuildMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWorld(2)
	for v := 1; v <= 400; v++ {
		w.Place(ident.NodeID(v), Point{rng.Float64() * 40, rng.Float64() * 40})
	}
	w.Walls = []Segment{{Point{10, 0}, Point{10, 40}}, {Point{0, 20}, Point{40, 20}}}
	for _, workers := range []int{1, 2, 4, 7, 64, 200} {
		w.Workers = workers
		w.Place(1, Point{rng.Float64() * 40, rng.Float64() * 40}) // bust the graph cache
		seq := bruteSymmetricGraph(w)
		if g := w.SymmetricGraph(); !g.Equal(seq) {
			t.Fatalf("workers=%d: %v != brute %v", workers, g, seq)
		}
	}
}

// TestFirstGraphEqualAtAnyWidth: a world's width is known before its first
// graph, and the first SymmetricGraph — index not built yet, nothing to
// patch — is the same graph at Workers 1, 2 and 4: Equal, and serving
// identical receiver rows, walls included.
func TestFirstGraphEqualAtAnyWidth(t *testing.T) {
	build := func(workers int) *World {
		rng := rand.New(rand.NewSource(7))
		w := NewWorld(2)
		w.Workers = workers
		w.Walls = []Segment{{Point{10, 0}, Point{10, 40}}, {Point{0, 20}, Point{40, 20}}}
		for v := 1; v <= 400; v++ {
			w.Place(ident.NodeID(v), Point{rng.Float64() * 40, rng.Float64() * 40})
		}
		return w
	}
	one := build(1)
	g1 := one.SymmetricGraph()
	if !g1.Equal(bruteSymmetricGraph(one)) {
		t.Fatal("the inline first graph differs from the brute-force one")
	}
	for _, workers := range []int{2, 4} {
		w := build(workers)
		g := w.SymmetricGraph()
		if !g.Equal(g1) {
			t.Fatalf("workers=%d: first graph %v != inline %v", workers, g, g1)
		}
		for _, v := range w.Nodes() {
			if row, want := g.Row(v).IDs(), g1.Row(v).IDs(); !slices.Equal(row, want) {
				t.Fatalf("workers=%d: row of %v is %v, inline %v", workers, v, row, want)
			}
		}
	}
}

// TestGenerationAndGraphCache pins the dirty-tracking contract: motion
// bumps the generation and invalidates the cached graph; a same-position
// Place does not, and the cached graph is returned pointer-identical.
func TestGenerationAndGraphCache(t *testing.T) {
	w := NewWorld(2)
	w.Place(1, Point{0, 0})
	w.Place(2, Point{1, 0})
	g1 := w.SymmetricGraph()
	gen := w.Generation()

	w.Place(1, Point{0, 0}) // same position: no-op
	if w.Generation() != gen {
		t.Fatal("same-position Place must not bump the generation")
	}
	if g2 := w.SymmetricGraph(); g2 != g1 {
		t.Fatal("unchanged world must reuse the cached graph pointer")
	}

	w.Place(1, Point{0, 0.5}) // actual motion
	if w.Generation() == gen {
		t.Fatal("motion must bump the generation")
	}
	if g3 := w.SymmetricGraph(); g3 == g1 {
		t.Fatal("motion must rebuild the graph")
	}

	// Structural reconfiguration through the fields is detected too.
	gen = w.Generation()
	w.Walls = []Segment{{Point{0.5, -1}, Point{0.5, 1}}}
	if w.SymmetricGraph().HasEdge(1, 2) {
		t.Fatal("wall assignment not picked up")
	}
	if w.Generation() == gen {
		t.Fatal("structural rebuild must bump the generation")
	}
}

// TestNodesCachedRoster pins that Nodes is served from the cached sorted
// roster: motion does not reallocate it, membership churn refreshes it.
func TestNodesCachedRoster(t *testing.T) {
	w := NewWorld(2)
	for v := 5; v >= 1; v-- {
		w.Place(ident.NodeID(v), Point{float64(v), 0})
	}
	a := w.Nodes()
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("roster not ascending: %v", a)
		}
	}
	w.Place(3, Point{9, 9})
	b := w.Nodes()
	if &a[0] != &b[0] {
		t.Fatal("motion must not rebuild the roster")
	}
	w.Remove(3)
	c := w.Nodes()
	if len(c) != 4 || c[2] != 4 {
		t.Fatalf("roster after remove: %v", c)
	}
	// The previously returned slice must stay intact for holders.
	if len(a) != 5 || a[2] != 3 {
		t.Fatalf("held roster slice was clobbered: %v", a)
	}
}

// TestDeltaRebuildMatchesBruteForce drives the delta-incremental rebuild:
// a mostly parked population where only a few nodes move between builds,
// so SymmetricGraph takes the ApplyDelta path round after round. Every
// round is checked against the all-pairs oracle, interleaved with the
// events that must poison the delta (joins, leaves, wall and range
// reconfiguration) and with stationary rounds that must keep serving the
// cached pointer.
func TestDeltaRebuildMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := NewWorld(2.0)
	const n = 120
	for i := 1; i <= n; i++ {
		w.Place(ident.NodeID(i), Point{X: rng.Float64() * 25, Y: rng.Float64() * 25})
	}
	checkAgainstOracle(t, w, "initial full build")
	deltaRounds := 0
	for round := 0; round < 40; round++ {
		// Move a handful of nodes (some across cells, some within, some
		// onto their current position — the no-op must not dirty them).
		for j := 0; j < 1+rng.Intn(4); j++ {
			v := ident.NodeID(1 + rng.Intn(n))
			p, _ := w.Pos(v)
			switch rng.Intn(3) {
			case 0:
				w.Place(v, Point{X: rng.Float64() * 25, Y: rng.Float64() * 25})
			case 1:
				w.Place(v, p.Add(rng.Float64()*0.8-0.4, rng.Float64()*0.8-0.4))
			default:
				w.Place(v, p)
			}
		}
		if w.deltaViable(len(w.Nodes())) {
			deltaRounds++
		}
		checkAgainstOracle(t, w, "delta round")
		switch round {
		case 12:
			w.Remove(ident.NodeID(1 + rng.Intn(n)))
			checkAgainstOracle(t, w, "after leave")
		case 20:
			w.Place(ident.NodeID(n+1), Point{X: 5, Y: 5})
			checkAgainstOracle(t, w, "after join")
		case 28:
			w.SetWalls([]Segment{{A: Point{X: 12, Y: 0}, B: Point{X: 12, Y: 25}}})
			checkAgainstOracle(t, w, "after walls")
		case 34:
			w.Range = 2.5
			w.Invalidate()
			checkAgainstOracle(t, w, "after range")
		}
		// Stationary round: the cached graph pointer must survive.
		g1 := w.SymmetricGraph()
		if g2 := w.SymmetricGraph(); g1 != g2 {
			t.Fatal("stationary round rebuilt the graph")
		}
	}
	if deltaRounds < 20 {
		t.Fatalf("delta path exercised only %d/40 rounds", deltaRounds)
	}
	// The disabled path must produce the identical graph.
	v := ident.NodeID(2)
	p, _ := w.Pos(v)
	w.Place(v, p.Add(0.3, -0.2))
	delta := w.SymmetricGraph()
	w.DisableDelta = true
	w.Invalidate()
	full := w.SymmetricGraph()
	if !delta.Equal(full) {
		t.Fatal("delta graph differs from full rebuild")
	}
}

// TestDeltaFallsBackWhenMostMove asserts the worthwhile-fraction fallback:
// when more than a quarter of the population moves, the next rebuild must
// not take the delta path (the full rebuild is cheaper) — and the result
// still matches the oracle.
func TestDeltaFallsBackWhenMostMove(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := NewWorld(2.0)
	const n = 60
	for i := 1; i <= n; i++ {
		w.Place(ident.NodeID(i), Point{X: rng.Float64() * 15, Y: rng.Float64() * 15})
	}
	w.SymmetricGraph()
	for i := 1; i <= n/2; i++ {
		w.Place(ident.NodeID(i), Point{X: rng.Float64() * 15, Y: rng.Float64() * 15})
	}
	if w.deltaViable(n) {
		t.Fatal("delta path viable with half the population moved")
	}
	checkAgainstOracle(t, w, "bulk move")
}

// TestDeltaParallelMatchesSequential pins the worker-count independence of
// the delta path: the patched graph at Workers=4 equals the sequential one.
func TestDeltaParallelMatchesSequential(t *testing.T) {
	build := func(workers int) *graph.G {
		rng := rand.New(rand.NewSource(23))
		w := NewWorld(2.0)
		w.Workers = workers
		for i := 1; i <= 100; i++ {
			w.Place(ident.NodeID(i), Point{X: rng.Float64() * 20, Y: rng.Float64() * 20})
		}
		w.SymmetricGraph()
		for j := 0; j < 10; j++ {
			v := ident.NodeID(1 + rng.Intn(100))
			w.Place(v, Point{X: rng.Float64() * 20, Y: rng.Float64() * 20})
		}
		if !w.deltaViable(100) {
			t.Fatal("expected the delta path")
		}
		return w.SymmetricGraph()
	}
	if !build(1).Equal(build(4)) {
		t.Fatal("delta graph depends on worker count")
	}
}

// TestDeltaSurvivesRepeatedMovers pins the unique-mover threshold: a tiny
// set of nodes each moving many times between two rebuilds must not
// poison the delta path (the raw append count crosses the fraction, the
// distinct count does not).
func TestDeltaSurvivesRepeatedMovers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewWorld(2.0)
	const n = 80
	for i := 1; i <= n; i++ {
		w.Place(ident.NodeID(i), Point{X: rng.Float64() * 20, Y: rng.Float64() * 20})
	}
	w.SymmetricGraph()
	for step := 0; step < 30*n; step++ { // 2400 Places, 3 distinct movers
		v := ident.NodeID(1 + step%3)
		p, _ := w.Pos(v)
		w.Place(v, p.Add(0.01, 0.005))
	}
	if !w.deltaViable(n) {
		t.Fatal("repeated movers poisoned the delta path")
	}
	checkAgainstOracle(t, w, "repeated movers")
}

// TestFullDeltaAndBruteForceAgree drives four worlds through one history
// — walls, a few movers a round, joins and leaves — with the rebuild forced full or left to the
// delta path, at Workers 1 and 4: one row scan feeds both rebuilds, so
// after every round the four graphs must hold the same rows, and those of
// the all-pairs oracle.
func TestFullDeltaAndBruteForceAgree(t *testing.T) {
	type variant struct {
		workers int
		full    bool
	}
	variants := []variant{{1, false}, {4, false}, {1, true}, {4, true}}
	worlds := make([]*World, len(variants))
	for i, v := range variants {
		w := NewWorld(2.0)
		w.Workers, w.DisableDelta = v.workers, v.full
		w.Walls = []Segment{{A: Point{X: 10, Y: -1}, B: Point{X: 10, Y: 14}}, {A: Point{X: 3, Y: 17}, B: Point{X: 21, Y: 16.5}}}
		worlds[i] = w
	}
	each := func(fn func(w *World)) {
		for _, w := range worlds {
			fn(w)
		}
	}
	rng := rand.New(rand.NewSource(29))
	point := func() Point { return Point{X: rng.Float64()*26 - 2, Y: rng.Float64()*26 - 2} }
	n := ident.NodeID(140)
	for v := ident.NodeID(1); v <= n; v++ {
		p := point()
		each(func(w *World) { w.Place(v, p) })
	}
	deltaRounds := 0
	for round := 0; round < 36; round++ {
		for j := 0; j < 1+rng.Intn(5); j++ {
			v, p := 1+ident.NodeID(rng.Intn(int(n))), point()
			each(func(w *World) {
				if _, ok := w.Pos(v); ok { // not one that left
					w.Place(v, p)
				}
			})
		}
		switch round % 9 {
		case 4:
			v := 1 + ident.NodeID(rng.Intn(int(n)))
			each(func(w *World) { w.Remove(v) })
		case 7:
			n++
			p := point()
			each(func(w *World) { w.Place(n, p) })
		}
		if worlds[0].deltaViable(len(worlds[0].Nodes())) {
			deltaRounds++
		}
		want := bruteSymmetricGraph(worlds[0])
		for i, w := range worlds {
			got := w.SymmetricGraph()
			if !got.Equal(want) {
				t.Fatalf("round %d, %+v: grid %v, brute %v", round, variants[i], got, want)
			}
			for _, v := range w.Nodes() {
				if !slices.IsSorted(got.NeighborsView(v)) {
					t.Fatalf("round %d, %+v: row of %v not ascending", round, variants[i], v)
				}
			}
		}
	}
	if deltaRounds < 20 {
		t.Fatalf("delta path exercised only %d/36 rounds", deltaRounds)
	}
}

// TestRangeBoundaryMatchesBruteForce puts pairs at the range itself and
// one rounding step either side of it — where the scan's squared-distance
// shortcut must leave the verdict to Dist — in every orientation of a
// Pythagorean offset, and holds the grid graph to the all-pairs oracle.
func TestRangeBoundaryMatchesBruteForce(t *testing.T) {
	const r = 2.5
	w := NewWorld(r)
	id := ident.NodeID(0)
	at := func(p Point) { id++; w.Place(id, p) }
	for i, d := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, 9), r * (1 + 1e-12), r * (1 - 1e-12), r * (1 + 1e-8)} {
		for j, dir := range []Point{{1, 0}, {0, -1}, {0.6, 0.8}, {-0.8, 0.6}, {5.0 / 13, -12.0 / 13}, {math.Sqrt2 / 2, math.Sqrt2 / 2}} {
			o := Point{X: 40 * float64(i), Y: 40 * float64(j)} // pairs far apart from each other
			at(o)
			at(o.Add(d*dir.X, d*dir.Y))
		}
	}
	got, want := w.SymmetricGraph(), bruteSymmetricGraph(w)
	if !got.Equal(want) {
		t.Fatalf("grid %v, brute %v", got, want)
	}
	if want.NumEdges() == 0 || want.NumEdges() == int(id)/2 {
		t.Fatalf("%d of %d boundary pairs linked: the cases straddle nothing", want.NumEdges(), id/2)
	}
}

// TestDirectlySteppedWorldKeepsEveryGraph: a world nobody retires graphs
// for (examples/urban, experiments.highwayTrace) hands out graphs that
// stay what they were — ten successive delta results each still equal
// the brute-force graph recorded when it was returned.
func TestDirectlySteppedWorldKeepsEveryGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := NewWorld(2.0)
	const n = 120
	for i := 1; i <= n; i++ {
		w.Place(ident.NodeID(i), Point{X: rng.Float64() * 25, Y: rng.Float64() * 25})
	}
	w.SymmetricGraph()
	var got, want []*graph.G
	for tick := 0; tick < 10; tick++ {
		for j := 0; j < 3; j++ {
			w.Place(ident.NodeID(1+rng.Intn(n)), Point{X: rng.Float64() * 25, Y: rng.Float64() * 25})
		}
		if !w.deltaViable(n) {
			t.Fatalf("tick %d: not on the delta path", tick)
		}
		got, want = append(got, w.SymmetricGraph()), append(want, bruteSymmetricGraph(w))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("graph %d changed after it was returned", i)
		}
	}
}

// TestBucketAliasingMatchesBruteForce holds the folded grid to the
// all-pairs oracle on worlds whose occupied box is far wider than the
// bucket array, so distant cells share buckets: two clusters 10⁶ apart
// (one at negative coordinates) laid exactly onto each other's buckets,
// with walls in all three, then a convoy drifting 1 500 cells without a re-layout. A bucket array
// with an axis under three buckets would let the 3×3 scan visit one bucket
// twice and put a neighbour in a row twice.
func TestBucketAliasingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const r, far = 2.0, 1e6
	// Cell size 4: far is 250 000 cells, a multiple of any array extent up
	// to 16, so the clusters alias exactly.
	w := NewWorld(4)
	origins := []Point{{0, 0}, {far, far}, {-far, 0}}
	id := ident.NodeID(0)
	for _, o := range origins {
		for i := 0; i < 25; i++ {
			id++
			w.Place(id, o.Add(rng.Float64()*8-4, rng.Float64()*8-4))
		}
		a := o.Add(rng.Float64()*4-2, rng.Float64()*4-2)
		w.Walls = append(w.Walls, Segment{a, a.Add(rng.Float64()*3, rng.Float64()*3)})
	}
	checkAgainstOracle(t, w, "clusters")
	nx, ny := w.mx+1, w.my+1
	if nx < 4 || ny < 4 || nx > 16 || ny > 16 {
		t.Fatalf("bucket array %d×%d for %d nodes", nx, ny, id)
	}
	shared := 0
	for _, lst := range w.cells {
		cx := map[int]bool{}
		for _, c := range lst {
			cx[w.cellAt(c.pt).cx] = true
		}
		if len(cx) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no bucket holds cells of two clusters: nothing aliases")
	}

	// A platoon drifting far past the array's extent, never re-laid out.
	w = NewWorld(r)
	for v := ident.NodeID(1); v <= 30; v++ {
		w.Place(v, Point{X: -3 * float64(v) * r / 4, Y: -float64(v%3) * r / 2})
	}
	w.SymmetricGraph()
	laid := w.cells
	for step := 1; step <= 2000; step++ {
		for v := ident.NodeID(1); v <= 30; v++ {
			p, _ := w.Pos(v)
			w.Place(v, p.Add(0.75*r, 0.01*float64(v%5)))
		}
		if step%250 == 0 {
			checkAgainstOracle(t, w, "convoy")
		}
	}
	if p, _ := w.Pos(1); p.X/r < 1000 || &w.cells[0] != &laid[0] {
		t.Fatalf("convoy drifted to cell %.0f, re-laid out %v", p.X/r, &w.cells[0] != &laid[0])
	}
}

// TestChangedRowRecordIsExact drives a walled world through motion, joins
// and leaves on the delta and on the forced-full rebuild, at widths 1 and
// 4, with the changed-row record armed, drained every rebuild or every
// other: a drain names exactly the nodes whose row changed in some rebuild
// since the previous drain, a node new to the graph included. A drain
// against a graph the world has rebuilt past answers all and keeps the
// record.
func TestChangedRowRecordIsExact(t *testing.T) {
	rowsOf := func(g *graph.G) map[ident.NodeID][]ident.NodeID {
		rows := map[ident.NodeID][]ident.NodeID{}
		for _, v := range g.Nodes() {
			rows[v] = g.Neighbors(v)
		}
		return rows
	}
	for _, full := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			w := NewWorld(2.0)
			w.Workers, w.DisableDelta = workers, full
			w.Walls = []Segment{{A: Point{X: 10, Y: -1}, B: Point{X: 10, Y: 14}}}
			rng := rand.New(rand.NewSource(31))
			point := func() Point { return Point{X: rng.Float64() * 22, Y: rng.Float64() * 22} }
			n := ident.NodeID(120)
			for v := ident.NodeID(1); v <= n; v++ {
				w.Place(v, point())
			}
			g := w.SymmetricGraph()
			w.TrackRows()
			before, want := rowsOf(g), map[ident.NodeID]bool{}
			for round := 0; round < 40; round++ {
				for j := 0; j < 1+rng.Intn(6); j++ {
					v := 1 + ident.NodeID(rng.Intn(int(n)))
					if _, ok := w.Pos(v); ok {
						w.Place(v, point())
					}
				}
				switch round % 7 {
				case 3:
					w.Remove(1 + ident.NodeID(rng.Intn(int(n))))
				case 5:
					n++
					w.Place(n, point())
				}
				stale := g
				g = w.SymmetricGraph()
				after := rowsOf(g)
				for v, row := range after {
					if old, ok := before[v]; !ok || !slices.Equal(old, row) {
						want[v] = true
					}
				}
				before = after
				if round%3 == 1 {
					continue // this rebuild's rows wait for the next drain
				}
				if stale != g {
					if _, all := w.DrainRows(stale); !all {
						t.Fatalf("full %v, workers %d, round %d: a drain at a stale graph did not answer all", full, workers, round)
					}
				}
				ids, all := w.DrainRows(g)
				if all {
					t.Fatalf("full %v, workers %d, round %d: the armed record answered all", full, workers, round)
				}
				got := map[ident.NodeID]bool{}
				for _, v := range ids {
					got[v] = true
				}
				if !maps.Equal(got, want) {
					t.Fatalf("full %v, workers %d, round %d: record %v, changed rows %v", full, workers, round, slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
				}
				clear(want)
			}
		}
	}
}
