package obs

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/antlist"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/priority"
	"repro/internal/radio"
	"repro/internal/space"
)

// checkAgainstOracle compares one tracker observation against the
// brute-force snapshot path on every statistic the tracker reports.
func checkAgainstOracle(t *testing.T, tag string, st RoundStats, tr *GroupTracker,
	prev, cur metrics.Snapshot, hasPrev bool, dmax int) {
	t.Helper()
	if got, want := fmt.Sprint(tr.Groups()), fmt.Sprint(cur.Groups()); got != want {
		t.Fatalf("%s: partition diverged:\n tracker: %s\n oracle:  %s", tag, got, want)
	}
	if st.Groups != cur.GroupCount() {
		t.Fatalf("%s: groups=%d want %d", tag, st.Groups, cur.GroupCount())
	}
	if st.Singletons != cur.SingletonCount() {
		t.Fatalf("%s: singletons=%d want %d", tag, st.Singletons, cur.SingletonCount())
	}
	if st.MeanSize != cur.MeanGroupSize() {
		t.Fatalf("%s: mean_size=%v want %v", tag, st.MeanSize, cur.MeanGroupSize())
	}
	if st.Nodes != cur.G.NumNodes() {
		t.Fatalf("%s: nodes=%d want %d", tag, st.Nodes, cur.G.NumNodes())
	}
	if st.Edges != cur.G.NumEdges() {
		t.Fatalf("%s: edges=%d want %d", tag, st.Edges, cur.G.NumEdges())
	}
	if st.Agreement != cur.Agreement() {
		t.Fatalf("%s: ΠA=%v want %v", tag, st.Agreement, cur.Agreement())
	}
	if st.Safety != cur.Safety(dmax) {
		t.Fatalf("%s: ΠS=%v want %v", tag, st.Safety, cur.Safety(dmax))
	}
	if st.SafetyRate != cur.SafetyRate(dmax) {
		t.Fatalf("%s: safety_rate=%v want %v", tag, st.SafetyRate, cur.SafetyRate(dmax))
	}
	if st.Maximality != cur.Maximality(dmax) {
		t.Fatalf("%s: ΠM=%v want %v", tag, st.Maximality, cur.Maximality(dmax))
	}
	if st.Converged != cur.Converged(dmax) {
		t.Fatalf("%s: converged=%v want %v", tag, st.Converged, cur.Converged(dmax))
	}
	if st.ExternalEdges != cur.ExternalEdges() {
		t.Fatalf("%s: nee=%d want %d", tag, st.ExternalEdges, cur.ExternalEdges())
	}
	if hasPrev {
		if want := metrics.Topological(prev, cur, dmax); st.Topological != want {
			t.Fatalf("%s: ΠT=%v want %v", tag, st.Topological, want)
		}
		viol := metrics.ContinuityViolations(prev, cur)
		if st.ContinuityViolations != len(viol) {
			t.Fatalf("%s: ΠC violations=%d want %d (%v)", tag, st.ContinuityViolations, len(viol), viol)
		}
		if st.Continuity != (len(viol) == 0) {
			t.Fatalf("%s: ΠC=%v want %v", tag, st.Continuity, len(viol) == 0)
		}
	}
}

// TestTrackerMatchesOracleStatic pins the tracker to the oracle on a
// static topology through convergence, including a mid-run link cut and
// a node removal (the restricted-graph and membership invalidations).
func TestTrackerMatchesOracleStatic(t *testing.T) {
	const dmax = 3
	topo := &engine.StaticTopology{G: graph.Line(14)}
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: 1}, topo)
	tr := NewGroupTracker(e)

	var prev metrics.Snapshot
	hasPrev := false
	for r := 1; r <= 60; r++ {
		e.StepRound()
		switch r {
		case 25:
			topo.Edit(func(r *graph.Ref) { r.RemoveEdge(7, 8) }) // partition the line
		case 40:
			e.RemoveNode(3)
			topo.Edit(func(r *graph.Ref) { r.RemoveNode(3) })
		}
		st := tr.Observe()
		cur := metrics.SnapshotOf(e)
		checkAgainstOracle(t, fmt.Sprintf("round %d", r), st, tr, prev, cur, hasPrev, dmax)
		prev, hasPrev = cur, true
	}
}

// TestTrackerMatchesOracleChurn is the property test of the issue: a
// mobile world with obstacle walls, lossy radio, jitter, and random
// join/leave churn — every round the tracker must agree with the
// brute-force snapshot oracle on the partition, every predicate and
// every counter. Walls plus waypoint motion exercise splits, merges and
// transient disagreement; churn exercises the membership paths, including
// a remove-and-readd inside one observation window onto the same slot and
// onto another one. Records destroyed on the way are poisoned one Observe
// later, so a reader of a stale one diverges from the oracle here.
func TestTrackerMatchesOracleChurn(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const dmax = 3
			w := space.NewWorld(5)
			w.Walls = []space.Segment{
				{A: space.Point{X: 12, Y: -2}, B: space.Point{X: 12, Y: 14}},
			}
			ids := make([]ident.NodeID, 24)
			for i := range ids {
				ids[i] = ident.NodeID(i + 1)
			}
			topo := engine.NewSpatialTopology(w,
				&mobility.Waypoint{Side: 24, SpeedMin: 0.5, SpeedMax: 2.5, Pause: 0.5},
				0.25, ids, rand.New(rand.NewSource(seed)))
			e := engine.New(engine.Params{
				Cfg:     core.Config{Dmax: dmax},
				Channel: radio.Lossy{P: 0.15},
				Jitter:  true,
				Seed:    seed,
				Workers: 2,
			}, topo)
			tr := NewGroupTracker(e)
			churn := rand.New(rand.NewSource(seed * 977))
			nextID := ident.NodeID(100)

			var prev metrics.Snapshot
			hasPrev := false
			for r := 1; r <= 70; r++ {
				// Churn is applied before the round, so the spatial
				// topology advances its graph over the change before the
				// next observation (the tracker's documented contract).
				order := e.Order()
				switch {
				case (r == 31 || r == 49) && len(order) > 4:
					// Remove and re-add the same node within one
					// observation window (the reborn path): at 31 onto the
					// slot it just freed, at 49 onto another one, a
					// newcomer having taken that slot in between.
					v := order[churn.Intn(len(order))]
					p, _ := w.Pos(v)
					slot := e.SlotOf(v)
					e.RemoveNode(v)
					w.Remove(v)
					if r == 49 {
						w.Place(nextID, space.Point{X: churn.Float64() * 24, Y: churn.Float64() * 24})
						e.AddNode(nextID)
						nextID++
					}
					w.Place(v, p.Add(1, 1))
					e.AddNode(v)
					if same := e.SlotOf(v) == slot; same != (r == 31) {
						t.Fatalf("round %d: reborn node on its old slot: %v", r, same)
					}
				case r%9 == 4 && len(order) > 8:
					v := order[churn.Intn(len(order))]
					e.RemoveNode(v)
					w.Remove(v)
				case r%9 == 7:
					v := nextID
					nextID++
					w.Place(v, space.Point{X: churn.Float64() * 24, Y: churn.Float64() * 24})
					e.AddNode(v)
				}
				e.StepRound()
				st := tr.Observe()
				cur := metrics.SnapshotOf(e)
				checkAgainstOracle(t, fmt.Sprintf("seed %d round %d", seed, r), st, tr, prev, cur, hasPrev, dmax)
				prev, hasPrev = cur, true
			}
		})
	}
}

// TestTrackerMatchesOracleChaos pins the tracker to the oracle where views
// name IDs that are not members: the walled chaos world of the
// conformance suite (60 waypoint nodes, the mixed fault preset, flapping
// neighborhoods) leaves views naming departed nodes, and one round loads a
// view that drops its owner and names a fabricated ID. The nodes a view
// change affects are read from the old and the new view, so every such ID
// must be a plain lookup miss and every member that shared either view
// must be re-checked.
func TestTrackerMatchesOracleChaos(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			const dmax, forgeAt = 3, 75
			w := space.NewWorld(2.5)
			ids := make([]ident.NodeID, 60)
			for i := range ids {
				ids[i] = ident.NodeID(i + 1)
			}
			topo := engine.NewSpatialTopology(w,
				&mobility.Waypoint{Side: 20, SpeedMin: 0.5, SpeedMax: 2, Pause: 1},
				0.2, ids, rand.New(rand.NewSource(29)))
			prof, err := fault.Preset("mixed", 1)
			if err != nil {
				t.Fatal(err)
			}
			prof.Seed = 31
			prof.Flap = fault.FlapConfig{Rate: 0.04, DownRounds: 5, MaxStorm: 3}
			e := engine.New(engine.Params{
				Cfg:     core.Config{Dmax: dmax},
				Channel: prof.NewChannel(nil),
				Seed:    29,
				Workers: workers,
			}, topo)
			positions := map[ident.NodeID]space.Point{}
			inj := fault.NewInjector(prof, e, fault.Hooks{
				Leave: func(v ident.NodeID) {
					if p, ok := w.Pos(v); ok {
						positions[v] = p
					}
					w.Remove(v)
				},
				Rejoin: func(v ident.NodeID) { w.Place(v, positions[v]) },
			})
			tr := NewGroupTracker(e)

			var prev metrics.Snapshot
			hasPrev := false
			vers := map[ident.NodeID]uint64{}
			strangers, ownerless := 0, 0
			for r := 1; r <= 150; r++ {
				inj.Apply(r)
				for _, v := range e.Order() {
					vers[v] = e.Node(v).ViewVersion()
				}
				e.StepRound()
				if r == forgeAt {
					forgeOwnerlessView(t, e, vers)
				}
				st := tr.Observe()
				cur := metrics.SnapshotOf(e)
				checkAgainstOracle(t, fmt.Sprintf("workers %d round %d", workers, r), st, tr, prev, cur, hasPrev, dmax)
				prev, hasPrev = cur, true
				for _, v := range e.Order() {
					view := e.Node(v).AppendView(nil)
					if !slices.Contains(view, v) {
						ownerless++
					}
					for _, u := range view {
						if e.Node(u) == nil {
							strangers++
						}
					}
				}
			}
			t.Logf("%d faults injected, %d view entries naming a non-member, %d views without their owner", inj.FaultsInjected, strangers, ownerless)
			if inj.FaultsInjected == 0 || strangers == 0 || ownerless == 0 {
				t.Fatalf("%d faults injected, %d view entries naming a non-member, %d views without their owner — the comparison is vacuous unless all are positive",
					inj.FaultsInjected, strangers, ownerless)
			}
		})
	}
}

// forgeOwnerlessView loads, into the first member whose view version moved
// in the round just stepped (so its compute is in the dirty report the
// tracker drains), its view with the owner dropped and a fabricated ID
// added, as a corrupted reload could leave it.
func forgeOwnerlessView(t *testing.T, e *engine.Engine, vers map[ident.NodeID]uint64) {
	t.Helper()
	for _, v := range e.Order() {
		n := e.Node(v)
		if old, ok := vers[v]; !ok || n.ViewVersion() == old {
			continue
		}
		view := map[ident.NodeID]bool{fault.FabricatedBase + 7: true}
		for _, u := range n.AppendView(nil) {
			view[u] = u != v
		}
		n.LoadState(antlist.Singleton(ident.Plain(v)), view, nil, priority.New(v))
		return
	}
	t.Fatal("no member computed in the forging round")
}

// obsFingerprint renders everything the acceptance criterion pins:
// partition, predicate bits, rates and counters.
func obsFingerprint(st RoundStats, tr *GroupTracker) string {
	return fmt.Sprintf("%v|g=%d s=%d m=%.17g|A=%v S=%v M=%v|sr=%.17g sg=%d|T=%v C=%v cv=%d mc=%d|nee=%d|n=%d e=%d",
		tr.Groups(), st.Groups, st.Singletons, st.MeanSize,
		st.Agreement, st.Safety, st.Maximality,
		st.SafetyRate, st.SafeGroups,
		st.Topological, st.Continuity, st.ContinuityViolations, st.MembershipChanges,
		st.ExternalEdges, st.Nodes, st.Edges)
}

// TestTrackerDeterministicAcrossWorkers pins the acceptance criterion:
// the tracker's full output, Groups() included, is bit-identical at
// Workers=1, 2, 3 and 4 on a churning mobile scenario in which group
// records are written again (width 2 three times: the claiming order
// differs between runs). ΠM is settled group by group, each in its
// representative's shard, so the comparison counts only if every run took
// each of its paths: a pair joined by two edges and deduplicated, a
// verdict reused from the last scan, one settled by BFS, and a clean group
// that read its upper groups off its verdicts instead of walking its rows.
// The registry's obs_pairs_reused and obs_pairs_bfs must move by the
// second and third counts.
func TestTrackerDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []string {
		w := space.NewWorld(4)
		ids := make([]ident.NodeID, 40)
		for i := range ids {
			ids[i] = ident.NodeID(i + 1)
		}
		topo := engine.NewSpatialTopology(w,
			&mobility.Waypoint{Side: 18, SpeedMin: 0.5, SpeedMax: 2, Pause: 1},
			0.2, ids, rand.New(rand.NewSource(3)))
		e := engine.New(engine.Params{
			Cfg: core.Config{Dmax: 3}, Seed: 9, Workers: workers,
			Jitter: true, RandomizedSends: true, Ts: 2, Tc: 4,
		}, topo)
		tr := NewGroupTracker(e)
		var out []string
		reused, deduped, hits, bfs, clean := 0, 0, 0, 0, 0
		for r := 1; r <= 40; r++ {
			switch r {
			case 12:
				e.RemoveNode(5)
				w.Remove(5)
			case 20:
				w.Place(77, space.Point{X: 9, Y: 9})
				e.AddNode(77)
			}
			e.StepRound()
			idle := len(tr.free) + len(tr.parked)
			prev, bufs, scanned := allVerdicts(tr), verdictBufs(tr), tr.scanned
			reg := e.Introspect()
			ctrReused, ctrBFS := reg.Get(introspect.CtrObsPairsReused), reg.Get(introspect.CtrObsPairsBFS)
			st := tr.Observe()
			if len(tr.free) < idle {
				reused++
			}
			if !slices.Equal(verdictBufs(tr), bufs) { // scanned
				d, h, b := pairPaths(tr, prev)
				deduped, hits, bfs = deduped+d, hits+h, bfs+b
				clean += cleanGroups(tr, scanned)
				if got := reg.Get(introspect.CtrObsPairsReused) - ctrReused; got != uint64(h) {
					t.Fatalf("workers=%d, round %d: obs_pairs_reused moved by %d, %d verdicts were reused", workers, r, got, h)
				}
				if got := reg.Get(introspect.CtrObsPairsBFS) - ctrBFS; got != uint64(b) {
					t.Fatalf("workers=%d, round %d: obs_pairs_bfs moved by %d, %d verdicts ran the BFS", workers, r, got, b)
				}
			}
			out = append(out, obsFingerprint(st, tr))
		}
		if reused == 0 || deduped == 0 || hits == 0 || bfs == 0 || clean == 0 {
			t.Fatalf("workers=%d: %d rounds reused a record; scans deduped %d pairs joined twice, reused %d verdicts, ran %d BFS, read %d clean groups off their verdicts — the comparison is vacuous unless all are positive",
				workers, reused, deduped, hits, bfs, clean)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 2, 2, 3, 4} {
		got := run(workers)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("workers=%d: round %d diverges:\n seq: %s\n par: %s", workers, r+1, want[r], got[r])
			}
		}
	}
}

// TestTrackerSparseObservation checks that Observe may be called every
// k-th round: the dirty sets accumulate and the transition predicates
// compare the bracketing configurations, exactly like feeding the two
// bracketing snapshots to the oracle.
func TestTrackerSparseObservation(t *testing.T) {
	const dmax = 3
	topo := &engine.StaticTopology{G: graph.Ring(12)}
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: 2}, topo)
	tr := NewGroupTracker(e)

	var prev metrics.Snapshot
	hasPrev := false
	for o := 1; o <= 12; o++ {
		e.StepRound()
		e.StepRound()
		e.StepRound() // three rounds per observation
		if o == 6 {
			topo.Edit(func(r *graph.Ref) { r.RemoveEdge(1, 2) })
		}
		st := tr.Observe()
		cur := metrics.SnapshotOf(e)
		checkAgainstOracle(t, fmt.Sprintf("obs %d", o), st, tr, prev, cur, hasPrev, dmax)
		prev, hasPrev = cur, true
	}
}

// TestTrackerSteadyStateAllocations pins what a changed view costs the
// allocator once the per-slot buffers have grown: the two view buffers of
// a slot swap, a group record is written again, so what is left (growth
// towards the largest view a slot has seen, a dozen closures an Observe)
// stays under one allocation per ten changed views. A view copy or a
// record per change is more than one per changed view. The buffers are
// still growing at round 30 (0.15 per changed view in this world), hence
// the longer warm-up. After it, 30 observations of some 7 500 changed
// views cost about 320 allocations.
func TestTrackerSteadyStateAllocations(t *testing.T) {
	w := space.NewWorld(4)
	ids := make([]ident.NodeID, 500)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	topo := engine.NewSpatialTopology(w,
		&mobility.Waypoint{Side: 64, SpeedMin: 2, SpeedMax: 6},
		0.2, ids, rand.New(rand.NewSource(3)))
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 9, Workers: 1}, topo)
	tr := NewGroupTracker(e)
	for r := 0; r < 90; r++ {
		e.StepRound()
		tr.Observe()
	}
	var before, after runtime.MemStats
	var mallocs uint64
	changed := 0
	for r := 0; r < 30; r++ {
		e.StepRound()
		runtime.ReadMemStats(&before)
		tr.Observe()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		for s := range tr.shards {
			changed += len(tr.shards[s].changed)
		}
	}
	t.Logf("%d allocations over 30 observations of %d changed views", mallocs, changed)
	if changed < 30*len(ids)/4 {
		t.Fatalf("only %d views changed — the world is not all-moving", changed)
	}
	if 10*mallocs >= uint64(changed) {
		t.Errorf("%d allocations for %d changed views, want under one per ten", mallocs, changed)
	}
}

// TestGroupRecordGenerationAcrossReuse dissolves a group beside a
// neighbour and re-forms a smaller one under the same representative — on
// the very record the first one lived in. A ΠM verdict is proved by the
// stamps its two records held when it was settled, so the stamp rule must
// hold throughout: no two live records share a stamp, and the recycled
// record comes back with a stamp above every one any record held before.
// ΠM, nee and everything else must match the oracle throughout.
func TestGroupRecordGenerationAcrossReuse(t *testing.T) {
	const dmax = 1 // groups are cliques: {1,2,3} and {4,5,6}, joined by 2–4
	ref := graph.NewRef()
	for _, e := range [][2]ident.NodeID{{1, 2}, {1, 3}, {2, 3}, {2, 4}, {4, 5}, {4, 6}, {5, 6}} {
		ref.AddEdge(e[0], e[1])
	}
	topo := &engine.StaticTopology{G: graph.FromRef(ref)}
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: dmax}, Seed: 1}, topo)
	tr := NewGroupTracker(e)

	var rec *group
	var maxStamp uint64
	var prev metrics.Snapshot
	hasPrev := false
	for r := 1; r <= 90; r++ {
		switch r {
		case 30:
			if rec = groupOf(tr, 1); rec == nil || len(rec.members) != 3 || groupOf(tr, 4) == nil || len(groupOf(tr, 4).members) != 3 {
				t.Fatalf("round %d: partition %v, want two triangles", r, tr.Groups())
			}
			topo.Edit(func(r *graph.Ref) {
				r.RemoveEdge(1, 2)
				r.RemoveEdge(1, 3)
				r.RemoveEdge(2, 3)
			})
		case 60:
			if rec.rep != ident.None || rec.members[0] != ident.None {
				t.Fatalf("round %d: dissolved record reads %v %v, want it poisoned", r, rec.rep, rec.members)
			}
			topo.Edit(func(r *graph.Ref) { r.AddEdge(1, 2) })
		}
		if i := slices.Index(tr.free, rec); i >= 0 && r >= 60 {
			// Any free record serves any newGroup: have this one served next.
			last := len(tr.free) - 1
			tr.free[i], tr.free[last] = tr.free[last], tr.free[i]
		}
		e.StepRound()
		st := tr.Observe()
		cur := metrics.SnapshotOf(e)
		checkAgainstOracle(t, fmt.Sprintf("round %d", r), st, tr, prev, cur, hasPrev, dmax)
		prev, hasPrev = cur, true
		held := map[uint64]ident.NodeID{}
		for rep, grp := range tr.groups.All() {
			if other, dup := held[grp.topoGen]; dup {
				t.Fatalf("round %d: the records of %v and %v share stamp %d", r, other, rep, grp.topoGen)
			}
			held[grp.topoGen] = rep
			if r < 60 {
				maxStamp = max(maxStamp, grp.topoGen)
			}
		}
	}
	if groupOf(tr, 1) != rec || fmt.Sprint(rec.members) != "[n1 n2]" {
		t.Fatalf("group {1,2} lives in %p %v, want the recycled record %p", groupOf(tr, 1), tr.Groups(), rec)
	}
	if maxStamp == 0 || rec.topoGen <= maxStamp {
		t.Fatalf("recycled record has stamp %d, records held up to %d before — a cached verdict could match it", rec.topoGen, maxStamp)
	}
}

// groupOf returns the record the tracker holds for representative rep, or
// nil.
func groupOf(tr *GroupTracker, rep ident.NodeID) *group {
	grp, _ := tr.groups.Get(rep)
	return grp
}
