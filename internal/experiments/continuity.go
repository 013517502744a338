package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/space"
	"repro/internal/workload"
)

// E5Compatibility regenerates the Prop. 13 table: the compatibility
// decision versus the ground-truth merged diameter on an exhaustive
// family of two-group gadgets. False accepts break safety and must be
// zero; false rejects measure the test's conservatism (they delay merges
// but never break a predicate).
func E5Compatibility() *Table {
	tb := newTable("E5 — compatibleList vs ground truth (Prop. 13)",
		"Dmax", "cases", "exact", "false_accept", "false_reject")
	for _, dmax := range []int{2, 3, 4, 5} {
		cases, exact, fa, fr := 0, 0, 0, 0
		// Two path groups A (p+1 nodes ending at the border node v) and
		// B (q+1 nodes starting at the sender u), joined by edge (v,u),
		// plus optionally a shortcut edge from A's node at depth i to u.
		for p := 0; p <= dmax; p++ {
			for q := 0; q <= dmax; q++ {
				for i := 0; i <= p; i++ {
					g, vID, uID, decision := compatGadget(p, q, i, dmax)
					cases++
					merged := make(map[ident.NodeID]bool, g.NumNodes())
					for _, v := range g.Nodes() {
						merged[v] = true
					}
					truth := graph.RefOf(g).InducedDiameter(merged) <= dmax
					switch {
					case decision == truth:
						exact++
					case decision && !truth:
						fa++
					default:
						fr++
					}
					_ = vID
					_ = uID
				}
			}
		}
		tb.AddRow(dmax, cases, exact, fa, fr)
	}
	return tb
}

// compatGadget builds the two-path gadget and evaluates the receiver's
// compatibility decision exactly as Compute would at first contact.
func compatGadget(p, q, i, dmax int) (*graph.G, ident.NodeID, ident.NodeID, bool) {
	r := graph.NewRef()
	// A: nodes 1..p+1, where node 1 is the border v; node k+1 is at
	// depth k from v.
	v := ident.NodeID(1)
	r.AddNode(v)
	for k := 1; k <= p; k++ {
		r.AddEdge(ident.NodeID(k), ident.NodeID(k+1))
	}
	// B: nodes 101..101+q, node 101 is the sender u.
	u := ident.NodeID(101)
	r.AddNode(u)
	for l := 1; l <= q; l++ {
		r.AddEdge(ident.NodeID(100+l), ident.NodeID(101+l))
	}
	r.AddEdge(v, u)
	// Shortcut: u neighbors every node of A's depth-i layer (one node on
	// a path).
	if i > 0 {
		r.AddEdge(ident.NodeID(i+1), u)
	}
	g := graph.FromRef(r)
	// Build the receiver node's protocol state: list and view = A.
	node := core.NewNode(v, core.Config{Dmax: dmax})
	al, view := pathListAndView(v, p, 1)
	node.LoadState(al, view, nil, prio(v))
	// The sender's list: B as seen from u, with the receiver plain at
	// position 1 (handshake done) and the shortcut witness visible in
	// u's layer 1.
	uref := pathList(u, q, 101).Ref()
	l1 := uref.At(1)
	l1 = l1.Add(plain(v))
	if i > 0 {
		l1 = l1.Add(plain(ident.NodeID(i + 1)))
	}
	if len(uref) < 2 {
		uref = append(uref, l1)
	} else {
		uref[1] = l1
	}
	return g, v, u, decideCompat(node, uref.List())
}

// E6Continuity regenerates the Prop. 14 table: the best-effort contract
// ΠT ⇒ ΠC under controlled topology change, measured after group
// formation (the contract is about formed groups; membership churn during
// the formation negotiation itself is reported separately in the
// bootstrap column). The drift-then-cut and straggler scenarios break ΠT
// mid-run: every resulting violation must be excused.
func E6Continuity(seeds int) *Table {
	tb := newTable("E6 — best effort ΠT ⇒ ΠC (Prop. 14)",
		"scenario", "bootstrap_viol", "ΠT_breaks", "ΠC_violations", "excused", "unexcused")
	const warmup = 40
	type scenario struct {
		name string
		run  func(seed int64) (*metrics.Tracker, *metrics.Tracker)
	}
	steady := func(s *engine.Engine, mutate func(int), rounds int) (*metrics.Tracker, *metrics.Tracker) {
		boot := observeRounds(s, nil, warmup, 4)
		tr := observeRounds(s, mutate, rounds, 4)
		return boot, tr
	}
	scenarios := []scenario{
		{"static-line", func(seed int64) (*metrics.Tracker, *metrics.Tracker) {
			s := engine.NewStatic(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: seed}, graph.Line(6))
			return steady(s, nil, 60)
		}},
		{"drift-then-cut", func(seed int64) (*metrics.Tracker, *metrics.Tracker) {
			d := &workload.GentleDrift{N: 6, PreserveRounds: 30}
			topo := &engine.StaticTopology{G: d.Graph()}
			s := engine.New(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: seed}, topo)
			return steady(s, func(round int) { d.Apply(topo, round) }, 80)
		}},
		{"rigid-convoy", func(seed int64) (*metrics.Tracker, *metrics.Tracker) {
			w := space.NewWorld(4)
			topo := engine.NewSpatialTopology(w, &mobility.Convoy{Spacing: 3, Speed: 5}, 0.1, idRange(5), nil)
			s := engine.New(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: seed}, topo)
			return steady(s, nil, 60)
		}},
		{"straggler-convoy", func(seed int64) (*metrics.Tracker, *metrics.Tracker) {
			w := space.NewWorld(4)
			topo := engine.NewSpatialTopology(w, &mobility.Convoy{
				Spacing: 3, Speed: 5, StragglerEvery: 10, StragglerSlowdown: 2,
			}, 0.1, idRange(5), nil)
			s := engine.New(engine.Params{Cfg: core.Config{Dmax: 4}, Seed: seed}, topo)
			return steady(s, nil, 80)
		}},
	}
	for _, sc := range scenarios {
		var bootViol, breaks, viol, excused, unexcused int
		for seed := int64(1); seed <= int64(seeds); seed++ {
			boot, tr := sc.run(seed)
			bootViol += boot.ContinuityViolations
			breaks += tr.TopologyBreaks
			viol += tr.ContinuityViolations
			excused += tr.ExcusedViolations
			unexcused += tr.UnexcusedViolations
		}
		tb.AddRow(sc.name, bootViol, breaks, viol, excused, unexcused)
	}
	return tb
}

// observeRounds steps the sim round by round, applying the optional
// topology mutation and feeding the tracker.
func observeRounds(s *engine.Engine, mutate func(round int), rounds, dmax int) *metrics.Tracker {
	tr := metrics.NewTracker()
	tr.Observe(metrics.SnapshotOf(s), dmax)
	for r := 0; r < rounds; r++ {
		if mutate != nil {
			mutate(r)
		}
		s.StepRound()
		tr.Observe(metrics.SnapshotOf(s), dmax)
	}
	return tr
}

// E9Loss regenerates the robustness table: raw and unexcused continuity
// violations and convergence under i.i.d. message loss, for two Tc/Ts
// ratios (the fair-channel margin).
func E9Loss(seeds int) *Table {
	tb := newTable("E9 — message loss sensitivity (line n=8, Dmax=3)",
		"loss", "Tc/Ts", "converged", "ΠC_violations/run", "unexcused/run")
	for _, loss := range []float64{0, 0.1, 0.2, 0.4} {
		for _, ratio := range []int{2, 4} {
			conv := 0
			viol, unexc := 0, 0
			for seed := int64(1); seed <= int64(seeds); seed++ {
				s := engine.NewStatic(engine.Params{
					Cfg: core.Config{Dmax: 3}, Seed: seed,
					Ts: 1, Tc: ratio,
					Channel: radio.Lossy{P: loss},
				}, graph.Line(8))
				if _, ok := metrics.RunUntilConverged(s, 3, 400, 3); ok {
					conv++
				}
				tr := observeRounds(s, nil, 60, 3)
				viol += tr.ContinuityViolations
				unexc += tr.UnexcusedViolations
			}
			tb.AddRow(loss, ratio, fmt.Sprintf("%d/%d", conv, seeds),
				float64(viol)/float64(seeds), float64(unexc)/float64(seeds))
		}
	}
	return tb
}

func idRange(n int) []ident.NodeID {
	out := make([]ident.NodeID, n)
	for i := range out {
		out[i] = ident.NodeID(i + 1)
	}
	return out
}
