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
			healSum, convSum, rec := 0, 0, 0
			for seed := int64(1); seed <= int64(seeds); seed++ {
				s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: tc.dmax}, Seed: seed}, tc.g())
				metrics.RunUntilConverged(s, tc.dmax, 400, 3) // reach legitimacy first
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
				if rounds, ok := metrics.RunUntilConverged(s, tc.dmax, 400, 3); ok {
					convSum += heal + rounds
					rec++
				}
			}
			tb.AddRow(k.name, tc.name, float64(healSum)/float64(seeds),
				float64(convSum)/float64(max(rec, 1)), fmt.Sprintf("%d/%d", rec, seeds))
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
		conv, roundsSum, groups := 0, 0, 0
		safe := true
		var n int
		for seed := int64(1); seed <= int64(seeds); seed++ {
			g := tc.g()
			n = g.NumNodes()
			s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: tc.dmax}, Seed: seed, Jitter: seed%2 == 0}, g)
			r, ok := metrics.RunUntilConverged(s, tc.dmax, 800, 3)
			snap := metrics.SnapshotOf(s)
			if ok {
				conv++
				roundsSum += r
			}
			groups += snap.GroupCount()
			safe = safe && snap.Safety(tc.dmax)
		}
		tb.AddRow(tc.name, n, tc.dmax, fmt.Sprintf("%d/%d", conv, seeds),
			float64(roundsSum)/float64(max(conv, 1)), float64(groups)/float64(seeds), safe)
	}
	return tb
}

// E4MergeGadgets regenerates the merge-chain and merge-ring table (the
// "loop of groups willing to merge" case that group priorities resolve).
func E4MergeGadgets(seeds int) *Table {
	tb := newTable("E4 — merge chains and rings (maximality, group priorities)",
		"gadget", "converged", "mean_rounds", "mean_groups")
	gadgets := []topoCase{
		{"chain-3x4", func() *graph.G { return workload.MergeChain(3, 4) }, 2},
		{"chain-4x3", func() *graph.G { return workload.MergeChain(4, 3) }, 2},
		{"ring-3x3", func() *graph.G { return workload.MergeRing(3, 3) }, 2},
		{"ring-4x3", func() *graph.G { return workload.MergeRing(4, 3) }, 2},
	}
	for _, tc := range gadgets {
		conv, roundsSum, groups := 0, 0, 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: tc.dmax}, Seed: seed}, tc.g())
			r, ok := metrics.RunUntilConverged(s, tc.dmax, 800, 3)
			if ok {
				conv++
				roundsSum += r
			}
			groups += metrics.SnapshotOf(s).GroupCount()
		}
		tb.AddRow(tc.name, fmt.Sprintf("%d/%d", conv, seeds),
			float64(roundsSum)/float64(max(conv, 1)), float64(groups)/float64(seeds))
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
		conv, sum := 0, 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: seed}, graph.Line(n))
			if r, ok := metrics.RunUntilConverged(s, 4, 1200, 3); ok {
				conv++
				sum += r
			}
		}
		bySize.AddRow(n, float64(sum)/float64(max(conv, 1)), fmt.Sprintf("%d/%d", conv, seeds))
	}
	byDmax := newTable("E7b — convergence rounds vs Dmax (line n=24)",
		"Dmax", "mean_rounds", "converged")
	for _, dmax := range []int{2, 3, 4, 6, 8} {
		conv, sum := 0, 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: seed}, graph.Line(24))
			if r, ok := metrics.RunUntilConverged(s, dmax, 1200, 3); ok {
				conv++
				sum += r
			}
		}
		byDmax.AddRow(dmax, float64(sum)/float64(max(conv, 1)), fmt.Sprintf("%d/%d", conv, seeds))
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
		s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: tc.dmax}, Seed: 1}, g)
		metrics.RunUntilConverged(s, tc.dmax, 600, 3)
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
		conv, total, groups := 0, 0, 0
		degSum := 0.0
		safe := true
		for seed := int64(1); seed <= int64(seeds); seed++ {
			g := graph.ConnectedRandomGeometric(20, 10, r, rand.New(rand.NewSource(seed)), 300)
			if g == nil {
				continue
			}
			total++
			degSum += 2 * float64(g.NumEdges()) / float64(g.NumNodes())
			s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: seed}, g)
			if _, ok := metrics.RunUntilConverged(s, 3, 600, 3); ok {
				conv++
			}
			snap := metrics.SnapshotOf(s)
			groups += snap.GroupCount()
			safe = safe && snap.Safety(3)
		}
		if total == 0 {
			continue
		}
		tb.AddRow(r, degSum/float64(total), fmt.Sprintf("%d/%d", conv, total),
			safe, float64(groups)/float64(total))
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
