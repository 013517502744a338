package experiments

import (
	"math"
	"math/rand"
	"time"

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
// the group structure and safety measured at the end. The protocol
// columns are deterministic per seed; ticks/s is the measured engine
// throughput (mobility + sharded graph build + protocol) on the host and
// is reported for the perf trajectory, not for reproducibility.
func E7cSpatialScale(seeds int, sizes ...int) *Table {
	if len(sizes) == 0 {
		sizes = E7cSizes
	}
	tb := newTable("E7c — spatial scale sweep (mobile RWP, range 2.5, Dmax=3, 12 rounds)",
		"n", "mean_degree", "groups", "grouped_pct", "ΠS_group_pct", "ticks/s")
	const (
		rounds     = 12
		safeWindow = 4 // rounds of the tail over which ΠS freshness is sampled
	)
	for _, n := range sizes {
		degSum, groupSum, groupedSum, ticksPerSec := 0.0, 0.0, 0.0, 0.0
		safeRateSum, safeRounds := 0.0, 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			w := space.NewWorld(2.5)
			m := &mobility.Waypoint{Side: rwpSide(n), SpeedMin: 0.5, SpeedMax: 2, Pause: 1}
			topo := engine.NewSpatialTopology(w, m, 0.2, idRange(n), rand.New(rand.NewSource(seed)))
			s := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: seed, Workers: 4}, topo)
			tr := obs.NewGroupTracker(s)
			t0 := time.Now()
			for r := 0; r < rounds-safeWindow; r++ {
				s.StepRound()
			}
			// ΠS is evaluated against the instantaneous topology, so
			// mobility breaks it transiently somewhere in the population
			// on nearly every round at this scale; report the per-group
			// freshness rate sampled over the tail. The incremental
			// tracker (internal/obs) replaces the per-round snapshot
			// re-derivation the seed paid here.
			var st obs.RoundStats
			for r := 0; r < safeWindow; r++ {
				s.StepRound()
				safeRounds++
				st = tr.Observe()
				safeRateSum += st.SafetyRate
			}
			ticksPerSec += float64(s.Tick()) / time.Since(t0).Seconds()
			degSum += 2 * float64(st.Edges) / float64(n)
			groupSum += float64(st.Groups)
			groupedSum += 100 * float64(n-st.Singletons) / float64(n)
		}
		f := float64(seeds)
		tb.AddRow(n, degSum/f, groupSum/f, groupedSum/f,
			100*safeRateSum/float64(max(safeRounds, 1)), ticksPerSec/f)
	}
	return tb
}

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
		conv, groups := 0, 0
		degSum := 0.0
		safe := true
		for seed := int64(1); seed <= int64(seeds); seed++ {
			w := space.NewWorld(r)
			topo := engine.NewSpatialTopology(w, &mobility.Static{Side: side}, 0.1,
				idRange(n), rand.New(rand.NewSource(seed)))
			s := engine.New(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: seed}, topo)
			// The convergence loop runs on the incremental tracker: one
			// Observe per round replaces the full snapshot re-derivation
			// RunUntilConverged paid (same predicate, same streak rule).
			tr := obs.NewGroupTracker(s)
			var st obs.RoundStats
			streak := 0
			for round := 1; round <= 300; round++ {
				s.StepRound()
				st = tr.Observe()
				if st.Converged {
					streak++
					if streak >= 3 {
						conv++
						break
					}
				} else {
					streak = 0
				}
			}
			degSum += 2 * float64(st.Edges) / float64(n)
			groups += st.Groups
			safe = safe && st.Safety
		}
		tb.AddRow(r, degSum/float64(seeds), ratio(conv, seeds), safe,
			float64(groups)/float64(seeds))
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
// CSR via graph.ApplyDelta instead of re-deriving every adjacency. Each
// configuration is run twice from the same seed — delta enabled and
// forced full rebuild — and both throughputs are reported; the protocol
// columns come from the delta run (the graphs are identical, so the full
// run would produce the same trace). ticks/s is host throughput for the
// perf trajectory, not for reproducibility.
func E7cDeltaScale(seeds int, sizes ...int) *Table {
	if len(sizes) == 0 {
		sizes = E7cDeltaSizes
	}
	tb := newTable("E7cΔ — delta-incremental graph sweep (commuter RWP, 5% active, range 2.5, Dmax=3, 10 rounds)",
		"n", "mean_degree", "groups", "grouped_pct", "ticks/s_delta", "ticks/s_full")
	const rounds = 10
	for _, n := range sizes {
		degSum, groupSum, groupedSum := 0.0, 0.0, 0.0
		tpsDelta, tpsFull := 0.0, 0.0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			run := func(disable bool) (obs.RoundStats, float64) {
				w := space.NewWorld(2.5)
				w.DisableDelta = disable
				m := &mobility.Commuter{Side: rwpSide(n), SpeedMin: 0.5, SpeedMax: 2,
					Pause: 1, ActiveFraction: 0.05}
				topo := engine.NewSpatialTopology(w, m, 0.2, idRange(n), rand.New(rand.NewSource(seed)))
				s := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: seed, Workers: 4}, topo)
				tr := obs.NewGroupTracker(s)
				var st obs.RoundStats
				t0 := time.Now()
				for r := 0; r < rounds; r++ {
					s.StepRound()
					st = tr.Observe()
				}
				return st, float64(s.Tick()) / time.Since(t0).Seconds()
			}
			st, tps := run(false)
			_, tpsF := run(true)
			tpsDelta += tps
			tpsFull += tpsF
			degSum += 2 * float64(st.Edges) / float64(n)
			groupSum += float64(st.Groups)
			groupedSum += 100 * float64(n-st.Singletons) / float64(n)
		}
		f := float64(seeds)
		tb.AddRow(n, degSum/f, groupSum/f, groupedSum/f, tpsDelta/f, tpsFull/f)
	}
	return tb
}
