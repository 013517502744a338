// Package experiments implements the reproduction's experiment suite
// E1–E16 (see DESIGN.md §4): each function regenerates one table of
// EXPERIMENTS.md from scratch, deterministically from its seeds, and
// cmd/grpexp prints them as text, markdown or TSV. What only the
// experiments use lives here too: the Table and its writers (table.go)
// and the re-clustering baselines E8 compares GRP against (baseline.go).
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Seeds is the default number of seeds per configuration.
const Seeds = 5

// topoCase names a reusable topology configuration.
type topoCase struct {
	name string
	g    func() *graph.G
	dmax int
}

func sparseCases() []topoCase {
	return []topoCase{
		{"line-10", func() *graph.G { return graph.Line(10) }, 3},
		{"line-20", func() *graph.G { return graph.Line(20) }, 4},
		{"ring-12", func() *graph.G { return graph.Ring(12) }, 4},
		{"clusterring-3x3", func() *graph.G { return graph.Clusters(3, 3, 0, true) }, 2},
		{"star-8", func() *graph.G { return graph.Star(8) }, 2},
		{"clusters-3x4", func() *graph.G { return graph.Clusters(3, 4, 0, false) }, 2},
	}
}

// sweep is where every converging E-world is built and run, and one table
// row's runs are tallied. A run is engine.New(p, topo) stepped by
// metrics.RunUntilConverged at p's Dmax — the map-based oracle, which
// shares no index with the engine — until ΠA∧ΠS∧ΠM has held 3 rounds in a
// row or cap rounds have passed; its final snapshot is folded into the
// row's cells.
type sweep struct {
	cap int // round cap of a run

	runs, conv, rounds, groups int
	size                       float64 // summed mean group size
	unsafe                     bool    // ΠS failed at the end of some run
}

// run builds one world, converges it and folds it, and returns the engine
// for follow-up measurement.
func (sw *sweep) run(p engine.Params, topo engine.Topology) *engine.Engine {
	s := engine.New(p, topo)
	sw.settle(s, 0)
	return s
}

// settle converges s from its current state and folds it; a converged
// run counts spent earlier rounds on top of its own.
func (sw *sweep) settle(s *engine.Engine, spent int) {
	r, ok := metrics.RunUntilConverged(s, s.P.Cfg.Dmax, sw.cap, 3)
	sw.fold(s, spent+r, ok)
}

// fold tallies one run that ends at s's current state.
func (sw *sweep) fold(s *engine.Engine, rounds int, ok bool) {
	snap := metrics.SnapshotOf(s)
	sw.runs++
	if ok {
		sw.conv++
		sw.rounds += rounds
	}
	sw.groups += snap.GroupCount()
	sw.size += snap.MeanGroupSize()
	sw.unsafe = sw.unsafe || !snap.Safety(s.P.Cfg.Dmax)
}

func (sw *sweep) converged() string { return fmt.Sprintf("%d/%d", sw.conv, sw.runs) }

// meanRounds is the mean over the converged runs.
func (sw *sweep) meanRounds() float64 { return float64(sw.rounds) / float64(max(sw.conv, 1)) }

func (sw *sweep) meanGroups() float64 { return float64(sw.groups) / float64(sw.runs) }

func (sw *sweep) meanSize() float64 { return sw.size / float64(sw.runs) }

func (sw *sweep) safe() bool { return !sw.unsafe }

// E1Stabilization regenerates the Prop. 1+2 table: from corrupted initial
// configurations, how many rounds until all garbage (ghost identities,
// oversized lists) is gone and the legitimacy predicate holds again.
func E1Stabilization(seeds int) *Table {
	tb := newTable("E1 — self-stabilization from corrupted state (Props. 1, 2)",
		"corruption", "topology", "heal_rounds", "reconverge_rounds", "recovered")
	kinds := []struct {
		name string
		kind workload.CorruptionKind
	}{
		{"ghost-ids", workload.CorruptGhosts},
		{"oversized-lists", workload.CorruptOversized},
		{"bogus-views", workload.CorruptViews},
		{"wild-clocks", workload.CorruptPriorities},
	}
	topos := []topoCase{
		{"line-10", func() *graph.G { return graph.Line(10) }, 3},
		{"star-8", func() *graph.G { return graph.Star(8) }, 2},
	}
	for _, k := range kinds {
		for _, tc := range topos {
			sw, healSum := sweep{cap: 400}, 0
			for seed := int64(1); seed <= int64(seeds); seed++ {
				// Reach legitimacy first; this warm-up is tallied nowhere.
				warm := sweep{cap: 400}
				s := warm.run(engine.Params{Cfg: core.Config{Dmax: tc.dmax}, Seed: seed}, &engine.StaticTopology{G: tc.g()})
				workload.Corrupt(s, k.kind, 0.5, rand.New(rand.NewSource(seed*97)))
				heal := 0
				for r := 1; r <= 200; r++ {
					s.StepRound()
					if !workload.HasGhosts(s) && workload.MaxListLen(s) <= tc.dmax+1 {
						heal = r
						break
					}
				}
				healSum += heal
				sw.settle(s, heal)
			}
			tb.AddRow(k.name, tc.name, float64(healSum)/float64(seeds), sw.meanRounds(), sw.converged())
		}
	}
	return tb
}

// E2Agreement regenerates the Prop. 7/8/12 table: convergence to
// ΠA ∧ ΠS ∧ ΠM from clean boots across the sparse regime.
func E2Agreement(seeds int) *Table {
	tb := newTable("E2/E3/E4 — convergence to ΠA∧ΠS∧ΠM (Props. 7, 8, 12)",
		"topology", "n", "Dmax", "converged", "mean_rounds", "groups", "ΠS_holds")
	for _, tc := range sparseCases() {
		sw := sweep{cap: 800}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			sw.run(engine.Params{Cfg: core.Config{Dmax: tc.dmax}, Seed: seed, Jitter: seed%2 == 0}, &engine.StaticTopology{G: tc.g()})
		}
		tb.AddRow(tc.name, tc.g().NumNodes(), tc.dmax, sw.converged(), sw.meanRounds(), sw.meanGroups(), sw.safe())
	}
	return tb
}

// E4MergeGadgets regenerates the merge-chain and merge-ring table (the
// "loop of groups willing to merge" case that group priorities resolve).
func E4MergeGadgets(seeds int) *Table {
	tb := newTable("E4 — merge chains and rings (maximality, group priorities)",
		"gadget", "converged", "mean_rounds", "mean_groups")
	gadgets := []topoCase{
		{"chain-3x4", func() *graph.G { return graph.Clusters(3, 4, 0, false) }, 2},
		{"chain-4x3", func() *graph.G { return graph.Clusters(4, 3, 0, false) }, 2},
		{"ring-3x3", func() *graph.G { return graph.Clusters(3, 3, 0, true) }, 2},
		{"ring-4x3", func() *graph.G { return graph.Clusters(4, 3, 0, true) }, 2},
	}
	for _, tc := range gadgets {
		sw := sweep{cap: 800}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			sw.run(engine.Params{Cfg: core.Config{Dmax: tc.dmax}, Seed: seed}, &engine.StaticTopology{G: tc.g()})
		}
		tb.AddRow(tc.name, sw.converged(), sw.meanRounds(), sw.meanGroups())
	}
	return tb
}

// E7Scaling regenerates the convergence-time scaling series: rounds to
// legitimacy versus network size on lines (diameter-dominated) and versus
// Dmax on a fixed line.
func E7Scaling(seeds int) (*Table, *Table) {
	bySize := newTable("E7a — convergence rounds vs network size (line, Dmax=4)",
		"n", "mean_rounds", "converged")
	for _, n := range []int{10, 20, 30, 40, 60} {
		sw := sweep{cap: 1200}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			sw.run(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: seed}, &engine.StaticTopology{G: graph.Line(n)})
		}
		bySize.AddRow(n, sw.meanRounds(), sw.converged())
	}
	byDmax := newTable("E7b — convergence rounds vs Dmax (line n=24)",
		"Dmax", "mean_rounds", "converged")
	for _, dmax := range []int{2, 3, 4, 6, 8} {
		sw := sweep{cap: 1200}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			sw.run(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: seed}, &engine.StaticTopology{G: graph.Line(24)})
		}
		byDmax.AddRow(dmax, sw.meanRounds(), sw.converged())
	}
	return bySize, byDmax
}

// E11Overhead regenerates the control-overhead table: bytes and messages
// per node per round, versus group size and Dmax (message size grows with
// the list content, i.e. with the group the node ends up in).
func E11Overhead() *Table {
	tb := newTable("E11 — control overhead at steady state",
		"topology", "n", "Dmax", "msgs/node/round", "bytes/node/round", "bytes/msg")
	cases := []topoCase{
		{"line-10", func() *graph.G { return graph.Line(10) }, 3},
		{"line-20", func() *graph.G { return graph.Line(20) }, 4},
		{"line-20-d8", func() *graph.G { return graph.Line(20) }, 8},
		{"grid-4x4", func() *graph.G { return graph.Grid(4, 4) }, 3},
		{"clusters-3x4", func() *graph.G { return graph.Clusters(3, 4, 0, false) }, 2},
	}
	for _, tc := range cases {
		g := tc.g()
		n := g.NumNodes()
		warm := sweep{cap: 600} // the table's cells are the steady window's
		s := warm.run(engine.Params{Cfg: core.Config{Dmax: tc.dmax}, Seed: 1}, &engine.StaticTopology{G: g})
		// Measure a steady window.
		reg := s.Introspect()
		m0, b0, t0 := reg.Get(introspect.CtrMessagesSent), reg.Get(introspect.CtrBytesSent), s.Tick()
		const window = 50
		for i := 0; i < window; i++ {
			s.StepRound()
		}
		rounds := float64(s.Tick()-t0) / float64(s.P.Tc)
		msgs := float64(reg.Get(introspect.CtrMessagesSent) - m0)
		bytes := float64(reg.Get(introspect.CtrBytesSent) - b0)
		tb.AddRow(tc.name, n, tc.dmax,
			msgs/float64(n)/rounds, bytes/float64(n)/rounds, bytes/msgs)
	}
	return tb
}

// E13Density regenerates the convergence-vs-density series documenting
// the metastability finding: the fraction of runs reaching full
// legitimacy as the mean degree of a random geometric graph grows, with
// safety asserted throughout.
func E13Density(seeds int) *Table {
	tb := newTable("E13 — convergence rate vs density (RGG n=20, Dmax=3)",
		"radio_range", "mean_degree", "converged", "ΠS_holds", "mean_groups")
	for _, r := range []float64{2.2, 2.8, 3.4, 4.0, 5.0} {
		sw, degSum := sweep{cap: 600}, 0.0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			g := graph.ConnectedRandomGeometric(20, 10, r, rand.New(rand.NewSource(seed)), 300)
			if g == nil {
				continue
			}
			degSum += 2 * float64(g.NumEdges()) / float64(g.NumNodes())
			sw.run(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: seed}, &engine.StaticTopology{G: g})
		}
		if sw.runs == 0 {
			continue
		}
		tb.AddRow(r, degSum/float64(sw.runs), sw.converged(), sw.safe(), sw.meanGroups())
	}
	return tb
}

// All regenerates every experiment table with the given seed count. E7c
// runs a reduced size series here (the full tens-of-thousands series is
// for cmd/grpexp and the benchmarks).
func All(seeds int) []*Table {
	e7a, e7b := E7Scaling(seeds)
	return []*Table{
		E1Stabilization(seeds),
		E2Agreement(seeds),
		E4MergeGadgets(seeds),
		E5Compatibility(),
		E6Continuity(seeds),
		e7a, e7b,
		E7cSpatialScale(seeds, 1000, 5000),
		E7cDeltaScale(seeds, 4000),
		E8Lifetime(seeds),
		E8bHeadLoss(seeds),
		E9Loss(seeds),
		E10Ablation(seeds),
		E11Overhead(),
		E12Quarantine(seeds),
		E13Density(seeds),
		E13bDense(seeds),
		E14Stabilizers(seeds),
		E15Collision(seeds),
	}
}
