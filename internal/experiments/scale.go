package experiments

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/space"
)

// E7cSizes is the default size series of the spatial scale sweep — the
// ROADMAP's "E7 at tens of thousands of nodes", feasible only with the
// spatial-hash vicinity index (the all-pairs build at n=20000 would pay
// 2·10⁸ pair tests per tick). All() runs a reduced series to keep the
// test suite quick; cmd/grpexp runs the full one.
var E7cSizes = []int{2000, 5000, 10000, 20000}

// rwpSide returns the square side that keeps a random-waypoint world at
// constant density (mean symmetric degree ≈ 2.7 at range 2.5) as n grows.
func rwpSide(n int) float64 { return 2.7 * math.Sqrt(float64(n)) }

// E7cSpatialScale regenerates the large-scale mobile sweep: a random
// waypoint world at constant density, stepped for a fixed horizon, with
// the group structure and safety measured at the end. Every column is
// deterministic per seed.
func E7cSpatialScale(seeds int, sizes ...int) *Table {
	if len(sizes) == 0 {
		sizes = E7cSizes
	}
	tb := newTable("E7c — spatial scale sweep (mobile RWP, range 2.5, Dmax=3, 12 rounds)",
		"n", "mean_degree", "groups", "grouped_pct", "ΠS_group_pct")
	const (
		rounds     = 12
		safeWindow = 4 // rounds of the tail over which ΠS freshness is sampled
	)
	for _, n := range sizes {
		var c scaleCells
		for seed := int64(1); seed <= int64(seeds); seed++ {
			m := &mobility.Waypoint{Side: rwpSide(n), SpeedMin: 0.5, SpeedMax: 2, Pause: 1}
			scaleRun(&c, n, seed, m, rounds, safeWindow)
		}
		f := float64(seeds)
		tb.AddRow(n, c.deg/f, c.groups/f, c.grouped/f, 100*c.safe/float64(max(seeds*safeWindow, 1)))
	}
	return tb
}

// scaleRun is one run of the scale sweeps: n nodes under m (sized by
// rwpSide) at range 2.5, Dmax 3 and 4 workers. It steps rounds rounds
// with the incremental tracker observing the last window of them and
// folds the observations into c.
func scaleRun(c *scaleCells, n int, seed int64, m mobility.Model, rounds, window int) {
	topo := engine.NewSpatialTopology(space.NewWorld(2.5), m, 0.2, idRange(n), rand.New(rand.NewSource(seed)))
	s := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: seed, Workers: 4}, topo)
	tr := obs.NewGroupTracker(s)
	var st obs.RoundStats
	for r := 0; r < rounds; r++ {
		s.StepRound()
		if r >= rounds-window {
			st = tr.Observe()
			c.safe += st.SafetyRate
		}
	}
	c.deg += 2 * float64(st.Edges) / float64(n)
	c.groups += float64(st.Groups)
	c.grouped += 100 * float64(n-st.Singletons) / float64(n)
}

// scaleCells sums the cells of the scale sweeps over their runs: mean
// degree, groups and the grouped share of the nodes (in percent) at the
// last observation, and ΠS group freshness over every observed round.
// ΠS is evaluated against the instantaneous topology, so mobility
// breaks it transiently somewhere in the population on nearly every
// round at this scale; E7c reports the rate sampled over the tail.
type scaleCells struct{ deg, groups, grouped, safe float64 }

// E13bDense regenerates the dense-regime sweep the grid makes
// affordable: a static spatial RGG at n=200 whose radio range sweeps the
// mean degree from the sparse regime (~3) into the dense one (~20). It
// scales E13's metastability finding to 10× the population: as density
// grows the configuration fragments toward singletons (mean_groups →
// n) and full legitimacy stays out of reach within the horizon, while
// safety holds throughout. E13 stops at n=20 because its oracle
// topology generator is all-pairs; here the engine derives the topology
// through the spatial index, and the stationary world keeps the graph —
// and the engine's receiver cache — frozen after the first tick.
func E13bDense(seeds int) *Table {
	tb := newTable("E13b — dense-regime metastability at scale (spatial RGG n=200, Dmax=3)",
		"radio_range", "mean_degree", "converged", "ΠS_holds", "mean_groups")
	const (
		n    = 200
		side = 40.0
		dmax = 3
	)
	for _, r := range []float64{3.0, 4.0, 5.0, 6.5, 8.0} {
		sw, degSum := sweep{cap: 300}, 0.0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			w := space.NewWorld(r)
			topo := engine.NewSpatialTopology(w, &mobility.Static{Side: side}, 0.1,
				idRange(n), rand.New(rand.NewSource(seed)))
			// The map-based oracle costs little here: at seed 1, 300 rounds
			// on a two-core Xeon, it took 29 / 33 / 36 ms at r = 3 / 5 / 8
			// against 0.32 / 1.60 / 5.16 s of StepRound, and agreed with the
			// tracker on every round (verdict, groups, ΠS, edge count).
			s := sw.run(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: seed}, topo)
			degSum += 2 * float64(s.SnapshotGraph().NumEdges()) / float64(n)
		}
		tb.AddRow(r, degSum/float64(seeds), sw.converged(), sw.safe(), sw.meanGroups())
	}
	return tb
}

// E7cDeltaSizes is the default size series of the delta-graph sweep; 50000
// is the scale ROADMAP flagged as needing incremental SymmetricGraph
// updates. All() runs a reduced series; cmd/grpexp runs this one.
var E7cDeltaSizes = []int{20000, 50000}

// E7cDeltaScale extends the spatial sweep into the mostly-parked commuter
// regime (5% of nodes drive random-waypoint journeys, the rest are
// parked), where the spatial index's delta-incremental rebuild applies:
// each tick re-scans only the movers' vicinities and patches the previous
// CSR via graph.ApplyDelta instead of re-deriving every adjacency. Every
// column is deterministic per seed.
func E7cDeltaScale(seeds int, sizes ...int) *Table {
	if len(sizes) == 0 {
		sizes = E7cDeltaSizes
	}
	tb := newTable("E7cΔ — delta-incremental graph sweep (commuter RWP, 5% active, range 2.5, Dmax=3, 10 rounds)",
		"n", "mean_degree", "groups", "grouped_pct")
	const rounds = 10
	for _, n := range sizes {
		var c scaleCells
		for seed := int64(1); seed <= int64(seeds); seed++ {
			m := &mobility.Commuter{Side: rwpSide(n), SpeedMin: 0.5, SpeedMax: 2, Pause: 1, ActiveFraction: 0.05}
			scaleRun(&c, n, seed, m, rounds, rounds)
		}
		f := float64(seeds)
		tb.AddRow(n, c.deg/f, c.groups/f, c.grouped/f)
	}
	return tb
}
