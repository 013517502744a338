package grp

// The benchmark harness: one testing.B benchmark per experiment of the
// evaluation (DESIGN.md §4). Each benchmark regenerates its table end to
// end — workload generation, protocol execution, predicate checking — so
// `go test -bench=.` both re-derives every reported number and measures
// the cost of producing it. A reduced seed count keeps individual
// iterations in the hundreds of milliseconds; cmd/grpexp runs the same
// code with the full seed count.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/antlist"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/space"
)

const benchSeeds = 2

func BenchmarkE1Stabilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E1Stabilization(benchSeeds); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE2Agreement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E2Agreement(benchSeeds); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE4Maximality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E4MergeGadgets(benchSeeds); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE5Compatible(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E5Compatibility(); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE6Continuity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E6Continuity(benchSeeds); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE7Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, c := experiments.E7Scaling(1)
		if len(a.Rows) == 0 || len(c.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE8Lifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E8Lifetime(1); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE9Loss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E9Loss(1); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE10Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E10Ablation(1); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE11Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E11Overhead(); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE12Quarantine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E12Quarantine(benchSeeds); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE13Density(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E13Density(1); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// Micro-benchmarks of the protocol itself: the per-node cost of one
// compute and one broadcast at steady state, which bounds what a real
// deployment spends per Tc/Ts period.

func benchSteadySim(b *testing.B, g *graph.G, dmax int) *engine.Engine {
	b.Helper()
	s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: 1}, g)
	s.RunUntilConverged(400, 3)
	return s
}

func BenchmarkNodeCompute(b *testing.B) {
	s := benchSteadySim(b, graph.Line(10), 4)
	n := s.Node(5)
	msgs := []core.Message{
		s.Node(4).BuildMessage(),
		s.Node(6).BuildMessage(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			n.Receive(m)
		}
		n.Compute()
	}
}

func BenchmarkNodeBuildMessage(b *testing.B) {
	s := benchSteadySim(b, graph.Line(10), 4)
	n := s.Node(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := n.BuildMessage()
		if m.From != 5 {
			b.Fatal("bad message")
		}
	}
}

func BenchmarkSimRound100Nodes(b *testing.B) {
	s := benchSteadySim(b, graph.Line(100), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepRound()
	}
}

// legacySim replicates the seed engine's strictly sequential Step() for
// the perf trajectory: the full node set is re-sorted twice per tick and
// every node is scanned with the modulo timer test — the exact hot path
// the phase-parallel engine replaced.
type legacySim struct {
	cfg     core.Config
	ts, tc  int
	g       *graph.G
	nodes   map[ident.NodeID]*core.Node
	rng     *rand.Rand
	tick    int
	channel radio.Channel
}

func newLegacySim(g *graph.G, dmax int, seed int64) *legacySim {
	s := &legacySim{
		cfg: core.Config{Dmax: dmax}, ts: 1, tc: 2, g: g,
		nodes:   make(map[ident.NodeID]*core.Node),
		rng:     rand.New(rand.NewSource(seed)),
		channel: radio.Perfect{},
	}
	for _, v := range g.Nodes() {
		s.nodes[v] = core.NewNode(v, s.cfg)
	}
	return s
}

func (s *legacySim) sortedNodes() []ident.NodeID {
	out := make([]ident.NodeID, 0, len(s.nodes))
	for v := range s.nodes {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *legacySim) step() {
	var txs []radio.Tx
	for _, v := range s.sortedNodes() {
		if s.tick%s.ts == 0 {
			rcv := s.g.Neighbors(v)
			live := rcv[:0:0]
			for _, u := range rcv {
				if _, ok := s.nodes[u]; ok {
					live = append(live, u)
				}
			}
			txs = append(txs, radio.Tx{Sender: v, Receivers: live})
		}
	}
	if len(txs) > 0 {
		built := make(map[ident.NodeID]core.Message, len(txs))
		for _, tx := range txs {
			built[tx.Sender] = s.nodes[tx.Sender].BuildMessage()
		}
		for _, d := range s.channel.DeliverSlot(txs, s.rng) {
			if n, ok := s.nodes[d.To]; ok {
				n.Receive(built[d.From])
			}
		}
	}
	for _, v := range s.sortedNodes() {
		if s.tick%s.tc == 0 {
			s.nodes[v].Compute()
		}
	}
	s.tick++
}

// BenchmarkSimStep is the engine micro-benchmark at N=1000 nodes: one
// tick of the hot path, on the seed's sequential loop (replicated above),
// on the new engine's sequential path, and on the engine at 4 workers.
// The engine numbers are what every scaling experiment (E7, E13, soak)
// pays per tick.
func BenchmarkSimStep(b *testing.B) {
	const n = 1000
	b.Run("seed-path", func(b *testing.B) {
		s := newLegacySim(graph.Line(n), 4, 1)
		for i := 0; i < 100; i++ {
			s.step() // settle into steady state
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.step()
		}
	})
	for _, workers := range []int{1, 4} {
		name := "engine-seq"
		if workers > 1 {
			name = "engine-4workers"
		}
		b.Run(name, func(b *testing.B) {
			s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: 1, Workers: workers}, graph.Line(n))
			s.StepTicks(100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkSimSnapshot measures the incremental snapshot construction on
// a static topology (the per-round cost RunUntilConverged pays on top of
// stepping).
func BenchmarkSimSnapshot(b *testing.B) {
	s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: 1}, graph.Line(1000))
	s.StepTicks(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := s.Snapshot(); snap.G.NumNodes() != 1000 {
			b.Fatal("bad snapshot")
		}
	}
}

func BenchmarkE8bHeadLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E8bHeadLoss(1); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE14Stabilizers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E14Stabilizers(1); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE15Collision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E15Collision(1); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- spatial index benchmarks (PR 2 trajectory: BENCH_spatial.json) ---

// rwpWorld builds a mobile random-waypoint world at constant density
// (mean symmetric degree ≈ 2.7 at range 2.5, matching E7c). The model is
// not yet initialized; callers init it or hand it to NewSpatialTopology.
func rwpWorld(n int) (*space.World, *mobility.Waypoint, []ident.NodeID) {
	w := space.NewWorld(2.5)
	ids := make([]ident.NodeID, n)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	m := &mobility.Waypoint{Side: 2.7 * math.Sqrt(float64(n)), SpeedMin: 0.5, SpeedMax: 2, Pause: 1}
	return w, m, ids
}

// bruteSymGraph is the seed's all-pairs O(n²) SymmetricGraph — the
// baseline the ≥10× acceptance criterion is measured against.
func bruteSymGraph(w *space.World, ids []ident.NodeID) *graph.G {
	g := graph.New()
	for _, v := range ids {
		g.AddNode(v)
	}
	for i, u := range ids {
		for _, v := range ids[i+1:] {
			if w.CanReach(u, v) && w.CanReach(v, u) {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// BenchmarkSymmetricGraph measures one full topology rebuild of a sparse
// mobile world at N=5000: the grid-served build (sequential and at 4
// workers) against the all-pairs baseline. A node is moved before every
// grid iteration so the generation cache cannot serve a stale graph —
// each iteration pays the real rebuild.
func BenchmarkSymmetricGraph(b *testing.B) {
	const n = 5000
	run := func(b *testing.B, workers int) {
		w, m, ids := rwpWorld(n)
		m.Init(w, ids, rand.New(rand.NewSource(1)))
		w.Workers = workers
		rng := rand.New(rand.NewSource(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Step(w, 0.2, rng) // realistic per-tick motion busts the cache
			if g := w.SymmetricGraph(); g.NumNodes() != n {
				b.Fatal("bad graph")
			}
		}
	}
	b.Run("grid-seq", func(b *testing.B) { run(b, 1) })
	b.Run("grid-4workers", func(b *testing.B) { run(b, 4) })
	b.Run("brute-force", func(b *testing.B) {
		w, m, ids := rwpWorld(n)
		m.Init(w, ids, rand.New(rand.NewSource(1)))
		rng := rand.New(rand.NewSource(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Step(w, 0.2, rng)
			if g := bruteSymGraph(w, ids); g.NumNodes() != n {
				b.Fatal("bad graph")
			}
		}
	})
}

// BenchmarkSpatialStep is the mobile-scenario engine benchmark at N=5000
// (RWP, constant density): one full tick — mobility, incremental grid
// maintenance, sharded graph rebuild, and the protocol phases — the cost
// every large mobile sweep (E7c) pays per tick.
func BenchmarkSpatialStep(b *testing.B) {
	const n = 5000
	for _, workers := range []int{1, 4} {
		name := "engine-seq"
		if workers > 1 {
			name = "engine-4workers"
		}
		b.Run(name, func(b *testing.B) {
			w, m, ids := rwpWorld(n)
			topo := engine.NewSpatialTopology(w, m, 0.2, ids, rand.New(rand.NewSource(1)))
			s := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 1, Workers: workers}, topo)
			s.StepTicks(4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// --- compute-phase + CSR benchmarks (PR 4 trajectory: BENCH_compute.json) ---

// BenchmarkCompute measures the protocol computation itself at steady
// state on a grid interior node (4 neighbors, Dmax 3): one Receive per
// neighbor plus one Compute — the unit the compute phase pays per node
// per Tc. This is the path the allocation-light rewrite (flat-record
// messages, slice-backed caches) targets.
func BenchmarkCompute(b *testing.B) {
	s := benchSteadySim(b, graph.Grid(5, 5), 3)
	center := NodeID(13) // interior node of the 5×5 grid
	n := s.Node(center)
	var msgs []core.Message
	for _, u := range graph.Grid(5, 5).Neighbors(center) {
		msgs = append(msgs, s.Node(u).BuildMessage())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			n.Receive(m)
		}
		n.Compute()
	}
}

// BenchmarkCSRBuild measures one bulk CSR construction at n=20000 (the
// mobile-sweep scale where the old map-of-maps assembly was a visible
// per-tick cost), with the edge list pre-extracted so only the build is
// timed, against the retained map-of-maps reference built edge by edge.
func BenchmarkCSRBuild(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewSource(3))
	src := graph.RandomGeometric(n, 2.7*math.Sqrt(n), 2.5, rng)
	nodes := src.Nodes()
	var edges []graph.Edge
	for _, u := range nodes {
		for _, v := range src.NeighborsView(u) {
			if u < v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	b.Run("csr-arena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g := graph.FromEdges(nodes, edges); g.NumNodes() != n {
				b.Fatal("bad graph")
			}
		}
	})
	// The spatial rebuild's shape: one finished row per node, with and
	// without the previous graph's node index to share.
	rows := make([]graph.NodeAdj, len(nodes))
	for i, u := range nodes {
		rows[i] = graph.NodeAdj{Node: u, Adj: src.NeighborsView(u)}
	}
	b.Run("rows-arena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g := graph.FromRows(nil, nodes, rows); g.NumNodes() != n {
				b.Fatal("bad graph")
			}
		}
	})
	b.Run("rows-shared-index", func(b *testing.B) {
		b.ReportAllocs()
		prev := graph.FromRows(nil, nodes, rows)
		for i := 0; i < b.N; i++ {
			g := graph.FromRows(prev, nodes, rows)
			if g.NumNodes() != n {
				b.Fatal("bad graph")
			}
			prev = g
		}
	})
	b.Run("map-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref := graph.NewRef()
			for _, v := range nodes {
				ref.AddNode(v)
			}
			for _, e := range edges {
				ref.AddEdge(e.U, e.V)
			}
			if ref.NumNodes() != n {
				b.Fatal("bad graph")
			}
		}
	})
}

// --- observability benchmarks (PR 3 trajectory: BENCH_obs.json) ---

// obsBenchEngine builds the settled N=5000 mobile RWP scenario the
// observability benchmarks share (100 warm-up ticks: groups have formed,
// mobility keeps churning the topology — the steady state a soak run
// spends its life in).
func obsBenchEngine(workers int) *engine.Engine {
	w, m, ids := rwpWorld(5000)
	topo := engine.NewSpatialTopology(w, m, 0.2, ids, rand.New(rand.NewSource(1)))
	s := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 1, Workers: workers}, topo)
	s.StepTicks(100)
	return s
}

// bruteRecord derives one full per-round stat record — everything
// obs.RoundStats carries: ΠA, per-group ΠS rate, ΠM, nee, and the
// transition predicates ΠT/ΠC against the previous round — through the
// brute-force snapshot path. This is what a PR 2-era soak loop had to
// pay per observed round.
func bruteRecord(s *engine.Engine, mt *metrics.Tracker) {
	snap := s.Snapshot()
	snap.Agreement()
	snap.SafetyRate(3)
	snap.Maximality(3)
	snap.ExternalEdges()
	mt.Observe(snap, 3) // ΠT, ΠC, membership churn (clones the config)
}

// BenchmarkGroupTracker is the soak-loop unit: one full round (Tc ticks)
// plus one observation, on the incremental tracker and on the
// brute-force snapshot path producing the same record.
func BenchmarkGroupTracker(b *testing.B) {
	b.Run("tracker-4workers", func(b *testing.B) {
		s := obsBenchEngine(4)
		tr := obs.NewGroupTracker(s)
		tr.Observe()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepRound()
			if st := tr.Observe(); st.Nodes != 5000 {
				b.Fatal("bad stats")
			}
		}
	})
	b.Run("snapshot-4workers", func(b *testing.B) {
		s := obsBenchEngine(4)
		mt := metrics.NewTracker()
		mt.Observe(s.Snapshot(), 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepRound()
			bruteRecord(s, mt)
		}
	})
}

// BenchmarkSpatialStepStats is the acceptance benchmark: the N=5000
// mobile tick *with per-round statistics enabled*, observing every tick
// — on the PR 2 path (full snapshot re-derivation) and on the
// incremental tracker. Compare with the stats-free BenchmarkSpatialStep
// to isolate the observability overhead; the acceptance ratio is
// (snapshot-stats − step) / (tracker-stats − step).
func BenchmarkSpatialStepStats(b *testing.B) {
	b.Run("nostats-4workers", func(b *testing.B) { // control: the bare settled tick
		s := obsBenchEngine(4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("snapshot-4workers", func(b *testing.B) {
		s := obsBenchEngine(4)
		mt := metrics.NewTracker()
		mt.Observe(s.Snapshot(), 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
			bruteRecord(s, mt)
		}
	})
	b.Run("tracker-4workers", func(b *testing.B) {
		s := obsBenchEngine(4)
		tr := obs.NewGroupTracker(s)
		tr.Observe()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
			if st := tr.Observe(); st.Nodes != 5000 {
				b.Fatal("bad stats")
			}
		}
	})
}

// --- antlist arena + delta-graph benchmarks (PR 5 trajectory: BENCH_antlist.json) ---

// foldLists builds the message lists a settled grid-interior node folds
// every compute: four neighbors, each advertising a 4-position list over
// the same group (the BenchmarkCompute scenario at the antlist level).
func foldLists() (owner ident.Entry, lists []antlist.List) {
	mkSet := func(ids ...uint32) antlist.Set {
		s := antlist.Set{}
		for _, id := range ids {
			s = s.Add(ident.Plain(ident.NodeID(id)))
		}
		return s
	}
	owner = ident.Plain(13)
	for _, nb := range []uint32{8, 12, 14, 18} {
		lists = append(lists, antlist.FromSets(
			mkSet(nb), mkSet(7, 13, 17), mkSet(2, 6, 12, 22), mkSet(1, 3, 11, 21),
		))
	}
	return owner, lists
}

// BenchmarkFold measures the per-compute ⊕ fold — the antlist machinery
// the arena rewrite targets — on the recycled Builder (steady state: the
// commit returns the previous allocation untouched) and on the retained
// nested copy-on-write reference the pre-arena code ran. The allocs/op
// column is the acceptance axis: the arena fold must allocate ≥5× less.
func BenchmarkFold(b *testing.B) {
	owner, lists := foldLists()
	b.Run("arena-builder", func(b *testing.B) {
		var bld antlist.Builder
		var prev antlist.List
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld.BeginRound(owner)
			for _, l := range lists {
				bld.Ant(l)
			}
			prev = bld.View().Publish(prev, nil)
		}
		if prev.NodeCount() == 0 {
			b.Fatal("empty fold")
		}
	})
	b.Run("nested-reference", func(b *testing.B) {
		var refs []antlist.RefList
		for _, l := range lists {
			refs = append(refs, l.Ref())
		}
		var out antlist.RefList
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = antlist.RefList{antlist.Set{owner}}
			for _, r := range refs {
				out = out.Ant(r)
			}
		}
		if out.NodeCount() == 0 {
			b.Fatal("empty fold")
		}
	})
}

// BenchmarkIncrementalGraph measures mobile graph maintenance at n=20000
// in the mostly-parked regime (2% of nodes move per rebuild): the
// delta-incremental path (vicinity re-scan of the movers + ApplyDelta
// CSR patch) against the full FromRows rebuild of the same world.
// The acceptance criterion is delta < full at this scale.
func BenchmarkIncrementalGraph(b *testing.B) {
	const n = 20000
	const movers = n / 50
	run := func(b *testing.B, disable bool) {
		w, m, ids := rwpWorld(n)
		m.Init(w, ids, rand.New(rand.NewSource(1)))
		w.Workers = 4
		w.DisableDelta = disable
		side := 2.7 * math.Sqrt(float64(n))
		rng := rand.New(rand.NewSource(2))
		if g := w.SymmetricGraph(); g.NumNodes() != n {
			b.Fatal("bad graph")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < movers; j++ {
				v := ids[rng.Intn(n)]
				w.Place(v, space.Point{X: rng.Float64() * side, Y: rng.Float64() * side})
			}
			if g := w.SymmetricGraph(); g.NumNodes() != n {
				b.Fatal("bad graph")
			}
		}
	}
	b.Run("delta-patch", func(b *testing.B) { run(b, false) })
	b.Run("full-rebuild", func(b *testing.B) { run(b, true) })
}

// --- slot-indexed engine + activity-skip benchmarks (PR 6 trajectory: BENCH_engine.json) ---

// parkedEngine builds the n=50000 mostly-parked commuter world (2% of the
// nodes drive random-waypoint journeys, the rest stay parked, constant
// density) and settles it for 100 ticks so the parked clusters have
// converged — the regime where tick cost must track the active set, not
// the roster.
func parkedEngine(workers int, eager, noMemo bool) *engine.Engine {
	return parkedEngineAt(workers, eager, noMemo, 0.02)
}

// parkedEngineAt is parkedEngine with the commuter active fraction as a
// parameter, for the parked→mobile sweep.
func parkedEngineAt(workers int, eager, noMemo bool, active float64) *engine.Engine {
	const n = 50000
	w := space.NewWorld(2.5)
	ids := make([]ident.NodeID, n)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	m := &mobility.Commuter{Side: 2.7 * math.Sqrt(float64(n)), SpeedMin: 0.5, SpeedMax: 2,
		Pause: 1, ActiveFraction: active}
	topo := engine.NewSpatialTopology(w, m, 0.2, ids, rand.New(rand.NewSource(1)))
	s := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 1, Workers: workers,
		EagerCompute: eager, DisableMemo: noMemo}, topo)
	s.StepTicks(100)
	return s
}

// BenchmarkParkedTick is the PR 6/9 acceptance benchmark: the settled
// parked-world tick at n=50000 with the full skip stack on (the default:
// signature skip + fixpoint memo), with the memo disabled (the PR 6-era
// version-grained skip alone), and with everything off (EagerCompute —
// every parked node re-derives its no-op round, the pre-skip cost model
// on the slot-indexed engine). The PR 5 baseline for the same world is
// this benchmark run on the PR 5 tree; all are recorded in
// BENCH_engine.json. skipfrac reports the fraction of compute boundaries
// the measured ticks satisfied without executing; memofrac is the share
// satisfied by memoized fixpoint replays specifically (the ISSUE 9
// layer; bench-trend gates both). The wake* metrics decompose the
// *executed* computes by the flight recorder's attributed cause
// (self-activity vs inbox traffic vs boundary-memory hold expiry vs
// memo misses), the profile ROADMAP item 1 optimizes against. The
// attribution must account for every executed compute, and the measured
// ticks must be allocation-free — both asserted here.
func BenchmarkParkedTick(b *testing.B) {
	modes := []struct {
		name          string
		eager, noMemo bool
	}{
		{"skip-4workers", false, false},
		{"nomemo-4workers", false, true},
		{"eager-4workers", true, false},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			s := parkedEngine(4, mode.eager, mode.noMemo)
			before := s.Introspect().Snapshot().Counters
			phaseBefore := s.Introspect().Snapshot().PhaseNs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.StopTimer()
			after := s.Introspect().Snapshot().Counters
			// Flight-recorder per-phase wall clock, per tick: benchtrend
			// promotes each ph_<name>_ns column to its own trend line, so a
			// phase regressing inside a flat total still trips the gate.
			for name, ns := range s.Introspect().Snapshot().PhaseNs {
				b.ReportMetric(float64(ns-phaseBefore[name])/float64(b.N), "ph_"+name+"_ns")
			}
			run := after["computes_run"] - before["computes_run"]
			skipped := after["computes_skipped"] - before["computes_skipped"]
			if total := run + skipped; total > 0 {
				b.ReportMetric(float64(skipped)/float64(total), "skipfrac")
				if !mode.eager && !mode.noMemo {
					memo := after["skips_memo"] - before["skips_memo"]
					b.ReportMetric(float64(memo)/float64(total), "memofrac")
				}
			}
			if run > 0 {
				var sum uint64
				for c := introspect.WakeCause(0); c < introspect.NumWakeCauses; c++ {
					sum += after[c.Counter().String()] - before[c.Counter().String()]
				}
				if sum != run {
					b.Errorf("wake causes sum to %d over %d executed computes", sum, run)
				}
				frac := func(names ...string) float64 {
					var n uint64
					for _, name := range names {
						n += after[name] - before[name]
					}
					return float64(n) / float64(run)
				}
				b.ReportMetric(frac("wakes_self_active"), "wakeself")
				b.ReportMetric(frac("wakes_inbox_new", "wakes_inbox_lost"), "wakeinbox")
				b.ReportMetric(frac("wakes_hold_expiry"), "wakehold")
				b.ReportMetric(frac("wakes_memo_miss"), "wakememo")
			}
		})
	}
}

// BenchmarkParkedSweep charts the activity-driven scheduler across the
// parked→mobile spectrum: the same n=50000 commuter world with a rising
// fraction of nodes on the move. Tick cost should track the active set —
// near-flat replay cost at the parked end, converging to the eager cost
// as everything moves (EXPERIMENTS.md, parked-world sweep).
func BenchmarkParkedSweep(b *testing.B) {
	for _, active := range []float64{0, 0.02, 0.10, 0.50} {
		b.Run(fmt.Sprintf("active=%g", active), func(b *testing.B) {
			s := parkedEngineAt(4, false, false, active)
			before := s.Introspect().Counters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.StopTimer()
			after := s.Introspect().Counters()
			skipped := after["computes_skipped"] - before["computes_skipped"]
			if total := after["computes_run"] - before["computes_run"] + skipped; total > 0 {
				b.ReportMetric(float64(skipped)/float64(total), "skipfrac")
				b.ReportMetric(float64(after["skips_memo"]-before["skips_memo"])/float64(total), "memofrac")
			}
		})
	}
}

// shardedCounters sums a boundary counter across both shard registries.
func shardedCounters(shards []*dist.Shard, name string) uint64 {
	var n uint64
	for _, sh := range shards {
		n += sh.E.Introspect().Snapshot().Counters[name]
	}
	return n
}

// BenchmarkShardedTick is the PR 10 acceptance benchmark: the n=50000
// commuter-world tick single-process versus split over two shard owners
// on the loopback transport. The sharded variant reports the boundary
// traffic per tick (bytes, frames, elided frames, external deliveries)
// from the new flight-recorder counters — with delta encoding the bytes
// must be sublinear in n (the slab boundary is one-dimensional), which
// BENCH_dist.json records against the single-process wall clock.
func BenchmarkShardedTick(b *testing.B) {
	soak := obs.SoakConfig{N: 50000, ActiveFraction: 0.05, Seed: 1, Dmax: 3, Workers: 4}
	const warm = 100

	b.Run("1proc-4workers", func(b *testing.B) {
		cfg := soak
		w, mob, ids := obs.BuildSoakWorld(&cfg)
		topo := engine.NewSpatialTopology(w, mob, cfg.DT, ids, rand.New(rand.NewSource(cfg.Seed)))
		e := engine.New(engine.Params{Cfg: core.Config{Dmax: cfg.Dmax}, Seed: cfg.Seed, Workers: cfg.Workers}, topo)
		e.StepTicks(warm)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})

	b.Run("2shards-loopback-4workers", func(b *testing.B) {
		trs := dist.NewLoopback(2)
		cfg := dist.Config{Soak: soak, Shards: 2}
		shards := make([]*dist.Shard, 2)
		for i := range shards {
			var err error
			if shards[i], err = dist.NewShard(cfg, i, trs[i]); err != nil {
				b.Fatal(err)
			}
		}
		// The peer runs the identical tick count in lockstep; the barrier
		// makes the measured loop the wall clock of the whole 2-shard
		// system, which is the number that compares against 1proc.
		done := make(chan error, 1)
		go func() {
			for i := 0; i < warm+b.N; i++ {
				if err := shards[1].Tick(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < warm; i++ {
			if err := shards[0].Tick(); err != nil {
				b.Fatal(err)
			}
		}
		bytesBefore := shardedCounters(shards, "boundary_bytes_sent")
		framesBefore := shardedCounters(shards, "boundary_frames")
		elidedBefore := shardedCounters(shards, "boundary_frames_elided")
		extBefore := shardedCounters(shards, "ext_deliveries")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := shards[0].Tick(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		n := float64(b.N)
		b.ReportMetric(float64(shardedCounters(shards, "boundary_bytes_sent")-bytesBefore)/n, "boundbytes/tick")
		b.ReportMetric(float64(shardedCounters(shards, "boundary_frames")-framesBefore)/n, "boundframes/tick")
		b.ReportMetric(float64(shardedCounters(shards, "boundary_frames_elided")-elidedBefore)/n, "boundelided/tick")
		b.ReportMetric(float64(shardedCounters(shards, "ext_deliveries")-extBefore)/n, "extdeliv/tick")
	})
}
