package experiments

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/radio"
)

// E14Stabilizers regenerates the stabilizer ablation (DESIGN.md §3, item
// 8): the reproduction adds boundary-hold memory and debounced cuts to
// the paper's mechanisms; this table shows convergence with each of them
// disabled, across the sparse regime.
func E14Stabilizers(seeds int) *Table {
	tb := newTable("E14 — convergence stabilizer ablation (sparse regime)",
		"variant", "converged", "mean_rounds")
	variants := []struct {
		name string
		cfg  func(dmax int) core.Config
	}{
		{"full", func(d int) core.Config { return core.Config{Dmax: d} }},
		{"no-boundary-hold", func(d int) core.Config { return core.Config{Dmax: d, BoundaryHold: -1} }},
		{"no-debounce", func(d int) core.Config { return core.Config{Dmax: d, RejectDebounce: -1} }},
		{"neither", func(d int) core.Config {
			return core.Config{Dmax: d, BoundaryHold: -1, RejectDebounce: -1}
		}},
	}
	for _, v := range variants {
		sw := sweep{cap: 800}
		for _, tc := range sparseCases() {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				sw.run(engine.Params{Cfg: v.cfg(tc.dmax), Seed: seed}, &engine.StaticTopology{G: tc.g()})
			}
		}
		tb.AddRow(v.name, sw.converged(), sw.meanRounds())
	}
	return tb
}

// E15Collision regenerates the interference study on the paper's
// 802.11-like channel (§2: a node receives nothing while it or a second
// in-range sender transmits). With synchronized send timers every
// broadcast collides and the protocol starves; CSMA-style randomized
// backoff (re-drawn per transmission) with a generous compute period
// restores the fair-channel hypothesis τ1/τ2.
func E15Collision(seeds int) *Table {
	tb := newTable("E15 — collision channel vs timer dispersion (line n=6, Dmax=3)",
		"Ts", "Tc", "backoff", "converged", "mean_rounds")
	cases := []struct {
		ts, tc     int
		randomized bool
	}{
		{1, 2, false}, // all nodes send every tick: every slot collides
		{2, 8, true},  // randomized backoff in a 2-tick window
		{4, 16, true}, // 4-tick backoff window
		{8, 32, true}, // 8-tick window: mostly collision-free
	}
	for _, c := range cases {
		sw := sweep{cap: 600}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			sw.run(engine.Params{
				Cfg: core.Config{Dmax: 3}, Seed: seed,
				Ts: c.ts, Tc: c.tc, Jitter: true, RandomizedSends: c.randomized,
				Channel: radio.Collision{},
			}, &engine.StaticTopology{G: graph.Line(6)})
		}
		tb.AddRow(c.ts, c.tc, c.randomized, sw.converged(), sw.meanRounds())
	}
	return tb
}
