package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/space"
	"repro/internal/workload"
)

// E8Lifetime regenerates the central motivation table: group stability
// under VANET mobility for GRP versus re-clustering baselines. Vehicles
// drive a wrap-around highway; GRP maintains its groups, while Max-Min
// d-clustering and the greedy partitioner recompute every epoch from
// scratch (the behavior of clusterhead algorithms under mobility). The
// paper's claim: GRP keeps memberships stable wherever the topology
// allows; recomputing partitioners reshuffle them.
func E8Lifetime(seeds int) *Table {
	tb := newTable("E8 — group service under highway mobility (n=12, Dmax=4, opposing traffic)",
		"speed_spread", "algo", "mean_lifetime", "membership_changes", "ΠS_ok_pct")
	const (
		n     = 12
		dmax  = 4
		steps = 80
	)
	for _, spread := range []float64{0.0, 0.3, 0.8, 1.5} {
		type acc struct {
			life    float64
			changes int
			safeOK  int
			rounds  int
		}
		algos := []string{"GRP", "MaxMin-oracle", "MaxMin-epoch10", "Greedy-oracle"}
		sums := map[string]*acc{}
		for _, a := range algos {
			sums[a] = &acc{}
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			// One shared mobility trace per seed: replayed identically
			// for all algorithms.
			snaps := highwayTrace(n, spread, steps, seed)

			// GRP: the live protocol over the trace.
			grpTr := metrics.NewTracker()
			s := replayGRP(n, dmax, spread, steps, seed)
			for _, snap := range s {
				grpTr.Observe(snap, dmax)
				sums["GRP"].rounds++
				if snap.Safety(dmax) {
					sums["GRP"].safeOK++
				}
			}
			sums["GRP"].life += grpTr.MeanLifetime()
			sums["GRP"].changes += grpTr.MembershipChanges

			// Oracles recompute from the true global graph every round;
			// the epoch variant recomputes every 10 rounds and serves the
			// stale partition in between — what a deployed epoch-based
			// clusterer actually does.
			mmTr, meTr, grTr := metrics.NewTracker(), metrics.NewTracker(), metrics.NewTracker()
			var epochViews map[ident.NodeID]map[ident.NodeID]bool
			for i, g := range snaps {
				mm := metrics.Snapshot{G: g, Views: headViews(maxMin(g, dmax/2))}
				if i%10 == 0 || epochViews == nil {
					epochViews = pruneViews(headViews(maxMin(g, dmax/2)), g)
				} else {
					epochViews = pruneViews(epochViews, g)
				}
				me := metrics.Snapshot{G: g, Views: epochViews}
				gr := metrics.Snapshot{G: g, Views: greedyPartition(g, dmax)}
				mmTr.Observe(mm, dmax)
				meTr.Observe(me, dmax)
				grTr.Observe(gr, dmax)
				for name, snap := range map[string]metrics.Snapshot{
					"MaxMin-oracle": mm, "MaxMin-epoch10": me, "Greedy-oracle": gr,
				} {
					sums[name].rounds++
					if snap.Safety(dmax) {
						sums[name].safeOK++
					}
				}
			}
			sums["MaxMin-oracle"].life += mmTr.MeanLifetime()
			sums["MaxMin-oracle"].changes += mmTr.MembershipChanges
			sums["MaxMin-epoch10"].life += meTr.MeanLifetime()
			sums["MaxMin-epoch10"].changes += meTr.MembershipChanges
			sums["Greedy-oracle"].life += grTr.MeanLifetime()
			sums["Greedy-oracle"].changes += grTr.MembershipChanges
		}
		for _, name := range algos {
			a := sums[name]
			tb.AddRow(spread, name, a.life/float64(seeds),
				a.changes/seeds, 100*float64(a.safeOK)/float64(max(a.rounds, 1)))
		}
	}
	return tb
}

// highwayModel builds the mobility model for a given speed spread: base
// speed 10, per-vehicle speeds in [10, 10+spread·10], on a ring road
// (continuous distances — a straight road with modular wrap would break
// links artificially at the wrap point and charge the churn to every
// algorithm).
func highwayModel(spread float64) *mobility.RingRoad {
	return &mobility.RingRoad{
		Length: 140, Lanes: 2, LaneGap: 2,
		SpeedMin: 10, SpeedMax: 10 + float64(spread*10),
		Opposing: true,
	}
}

// highwayTrace produces the topology snapshot sequence of a highway run.
func highwayTrace(n int, spread float64, steps int, seed int64) []*graph.G {
	w := space.NewWorld(8)
	rng := rand.New(rand.NewSource(seed))
	m := highwayModel(spread)
	m.Init(w, idRange(n), rng)
	out := make([]*graph.G, 0, steps)
	for i := 0; i < steps; i++ {
		m.Step(w, 0.05, rng)
		out = append(out, w.SymmetricGraph())
	}
	return out
}

// replayGRP runs the protocol over the same mobility process and returns
// one snapshot per round.
func replayGRP(n, dmax int, spread float64, steps int, seed int64) []metrics.Snapshot {
	w := space.NewWorld(8)
	topo := engine.NewSpatialTopology(w, highwayModel(spread), 0.05/float64(2), idRange(n), rand.New(rand.NewSource(seed)))
	s := engine.New(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: seed}, topo)
	// Warm up so groups exist before measuring.
	for i := 0; i < 30; i++ {
		s.StepRound()
	}
	out := make([]metrics.Snapshot, 0, steps)
	for i := 0; i < steps; i++ {
		s.StepRound()
		out = append(out, metrics.SnapshotOf(s))
	}
	return out
}

// E10Ablation regenerates the compatibility-shortcut ablation: the full
// ∃i witness test versus the naive i=0 sum on shortcut-rich topologies
// (cliques and bridged clusters), measured by convergence and final
// partition coarseness.
func E10Ablation(seeds int) *Table {
	tb := newTable("E10 — compatibility shortcut ablation",
		"topology", "variant", "converged", "mean_groups", "mean_group_size")
	cases := []topoCase{
		{"clique-6-d2", func() *graph.G { return graph.Complete(6) }, 2},
		{"clusters-3x4", func() *graph.G { return graph.Clusters(3, 4, 0, false) }, 2},
		{"grid-4x4", func() *graph.G { return graph.Grid(4, 4) }, 3},
	}
	for _, tc := range cases {
		for _, variant := range []struct {
			name string
			mode core.CompatMode
		}{{"full", core.CompatFull}, {"naive-sum", core.CompatNaiveSum}} {
			conv, groups := 0, 0
			size := 0.0
			for seed := int64(1); seed <= int64(seeds); seed++ {
				s := engine.NewStatic(engine.Params{
					Cfg:  core.Config{Dmax: tc.dmax, Compat: variant.mode},
					Seed: seed,
				}, tc.g())
				if _, ok := metrics.RunUntilConverged(s, tc.dmax, 600, 3); ok {
					conv++
				}
				snap := metrics.SnapshotOf(s)
				groups += snap.GroupCount()
				size += snap.MeanGroupSize()
			}
			tb.AddRow(tc.name, variant.name, ratio(conv, seeds),
				float64(groups)/float64(seeds), size/float64(seeds))
		}
	}
	return tb
}

// E12Quarantine regenerates the quarantine ablation on the double-join
// gadget: with the quarantine, concurrent admissions are resolved before
// views change (no unexcused continuity violations and clean
// reconvergence); without it, views flap.
func E12Quarantine(seeds int) *Table {
	tb := newTable("E12 — quarantine ablation (double join, core n=4, Dmax=4)",
		"variant", "converged", "view_changes/run", "unexcused/run")
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"quarantine-on", false}, {"quarantine-off", true}} {
		conv := 0
		changes, unexc := 0, 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			g, _, _ := workload.DoubleJoin(4, 4)
			s := engine.NewStatic(engine.Params{
				Cfg:  core.Config{Dmax: 4, DisableQuarantine: variant.disable},
				Seed: seed,
			}, g)
			tr := observeRounds(s, nil, 80, 4)
			changes += tr.MembershipChanges
			unexc += tr.UnexcusedViolations
			if metrics.SnapshotOf(s).Converged(4) {
				conv++
			}
		}
		tb.AddRow(variant.name, ratio(conv, seeds),
			float64(changes)/float64(seeds), float64(unexc)/float64(seeds))
	}
	return tb
}

func ratio(a, b int) string { return fmt.Sprintf("%d/%d", a, b) }

// E8bHeadLoss regenerates the churn-on-departure comparison, the precise
// mechanism behind the paper's "maintain existing groups" claim: when a
// member — often the clusterhead of head-based schemes — leaves the
// network, GRP's continuity shrinks exactly the one affected group, while
// re-clustering algorithms recompute globally and reshuffle nodes across
// cluster boundaries. A line of n nodes loses a strategically chosen node
// (the current Max-Min clusterhead with the most members) every `period`
// rounds; a fresh node takes its place in the topology.
func E8bHeadLoss(seeds int) *Table {
	tb := newTable("E8b — membership churn under clusterhead departure (line n=12, Dmax=2)",
		"algo", "departures", "membership_changes", "changes/departure")
	const (
		n      = 12
		dmax   = 2
		period = 15
		events = 6
	)
	type acc struct{ changes, departures int }
	sums := map[string]*acc{"GRP": {}, "MaxMin": {}}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		topo := &engine.StaticTopology{G: graph.Line(n)}
		s := engine.New(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: seed}, topo)
		metrics.RunUntilConverged(s, dmax, 400, 3)

		grpTr := metrics.NewTracker()
		mmTr := metrics.NewTracker()
		grpTr.Observe(metrics.SnapshotOf(s), dmax)
		mmTr.Observe(metrics.Snapshot{G: topo.G, Views: headViews(maxMin(topo.G, dmax/2))}, dmax)

		next := ident.NodeID(n + 1)
		for e := 0; e < events; e++ {
			// Depart: the Max-Min head with the largest cluster (the
			// most disruptive loss for head-based schemes).
			head := biggestHead(topo.G, dmax/2)
			nbrs := topo.G.Neighbors(head)
			s.RemoveNode(head)
			// A fresh vehicle takes the same road position.
			topo.Edit(func(r *graph.Ref) {
				r.RemoveNode(head)
				for _, u := range nbrs {
					r.AddEdge(next, u)
				}
			})
			s.AddNode(next)
			next++
			for r := 0; r < period; r++ {
				s.StepRound()
				grpTr.Observe(metrics.SnapshotOf(s), dmax)
				mmTr.Observe(metrics.Snapshot{G: topo.G, Views: headViews(maxMin(topo.G, dmax/2))}, dmax)
			}
		}
		sums["GRP"].changes += grpTr.MembershipChanges
		sums["GRP"].departures += events
		sums["MaxMin"].changes += mmTr.MembershipChanges
		sums["MaxMin"].departures += events
	}
	for _, name := range []string{"GRP", "MaxMin"} {
		a := sums[name]
		tb.AddRow(name, a.departures, a.changes, float64(a.changes)/float64(max(a.departures, 1)))
	}
	return tb
}

// biggestHead returns the Max-Min clusterhead with the most members.
func biggestHead(g *graph.G, d int) ident.NodeID {
	clusters := headClusters(maxMin(g, d))
	best, size := ident.NodeID(0), -1
	for h, members := range clusters {
		if len(members) > size || (len(members) == size && h < best) {
			best, size = h, len(members)
		}
	}
	return best
}

// pruneViews drops departed nodes from a stale view assignment so the
// snapshot stays well formed (an epoch-based clusterer at least notices
// its own members vanishing).
func pruneViews(views map[ident.NodeID]map[ident.NodeID]bool, g *graph.G) map[ident.NodeID]map[ident.NodeID]bool {
	out := make(map[ident.NodeID]map[ident.NodeID]bool, len(views))
	for v, vw := range views {
		if !g.HasNode(v) {
			continue
		}
		m := make(map[ident.NodeID]bool, len(vw))
		for u := range vw {
			if g.HasNode(u) {
				m[u] = true
			}
		}
		out[v] = m
	}
	return out
}
