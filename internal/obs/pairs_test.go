package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/shard"
	"repro/internal/space"
)

// scriptSource is a Source whose graph and views a test writes directly:
// no protocol runs, so a partition can be laid out round by round.
type scriptSource struct {
	dmax    int
	g       *graph.G
	roster  *engine.Roster
	views   [][]ident.NodeID // by slot; nil when free
	moved   []ident.NodeID   // the nodes setView or rebirth touched since the last drain
	synced  bool
	batch   Views
	removed []engine.RemovedNode
	rows    []ident.NodeID // the changed-row record: exact
	reg     *introspect.Registry
}

// newScriptSource builds a world of g's nodes, every view {self}.
func newScriptSource(dmax int, g *graph.G) *scriptSource {
	src := &scriptSource{dmax: dmax, g: g, roster: engine.NewRoster(g.NumNodes()), reg: introspect.NewRegistry(shard.N)}
	for _, v := range g.Nodes() {
		src.roster.Add(v)
		src.views = append(src.views, []ident.NodeID{v})
	}
	return src
}

// setView gives v the view members.
func (src *scriptSource) setView(v ident.NodeID, members ...ident.NodeID) {
	src.views[src.roster.SlotOf(v)] = slices.Sorted(slices.Values(members))
	src.moved = append(src.moved, v)
}

// remove takes v out of the world and the graph: v's neighbors' rows
// change.
func (src *scriptSource) remove(v ident.NodeID) {
	s, _ := src.roster.Remove(v)
	src.views[s] = nil
	src.removed = append(src.removed, engine.RemovedNode{ID: v, Slot: s})
	src.rows = append(src.rows, src.g.NeighborsView(v)...)
	r := graph.RefOf(src.g)
	r.RemoveNode(v)
	src.g = graph.FromRef(r)
}

// rebirth removes v and adds it again inside one window, its view reset
// to {v} and the graph left as it was: no row changes. The added node's
// view goes out with the drain, as a Source's must.
func (src *scriptSource) rebirth(v ident.NodeID) {
	s, _ := src.roster.Remove(v)
	src.removed = append(src.removed, engine.RemovedNode{ID: v, Slot: s})
	src.views[s] = nil
	s, _ = src.roster.Add(v)
	if int(s) == len(src.views) {
		src.views = append(src.views, nil)
	}
	src.views[s] = []ident.NodeID{v}
	src.moved = append(src.moved, v)
}

// snapshot is the oracle's view of the current configuration.
func (src *scriptSource) snapshot() metrics.Snapshot {
	views := map[ident.NodeID]map[ident.NodeID]bool{}
	for _, v := range src.roster.IDs() {
		views[v] = map[ident.NodeID]bool{}
		for _, u := range src.views[src.roster.SlotOf(v)] {
			views[v][u] = true
		}
	}
	return metrics.Snapshot{G: src.g, Views: views}
}

func (src *scriptSource) Workers() int                     { return 1 }
func (src *scriptSource) Dmax() int                        { return src.dmax }
func (src *scriptSource) TrackRows()                       {}
func (src *scriptSource) Roster() *engine.Roster           { return src.roster }
func (src *scriptSource) LiveGraph() *graph.G              { return src.g }
func (src *scriptSource) Tick() int                        { return 0 }
func (src *scriptSource) TrafficTotals() (int, int)        { return 0, 0 }
func (src *scriptSource) Introspect() *introspect.Registry { return src.reg }

func (src *scriptSource) DrainRows() ([]ident.NodeID, bool) {
	rows := src.rows
	src.rows = nil
	return rows, false
}

// DrainViews hands over the views of the nodes touched since the last
// drain that are still members, every member's on the first drain.
func (src *scriptSource) DrainViews() ([]*Views, []ident.NodeID, []engine.RemovedNode) {
	if !src.synced {
		src.moved, src.synced = append(src.moved, src.roster.IDs()...), true
	}
	for s := range src.batch {
		src.batch[s].Reset()
	}
	for _, v := range src.moved {
		if s := src.roster.SlotOf(v); s >= 0 {
			copy(src.batch[shard.Of(v)].Add(v, len(src.views[s])), src.views[s])
		}
	}
	removed := src.removed
	src.moved, src.removed = nil, nil
	return []*Views{&src.batch}, nil, removed
}

// TestFreshRecordUnderCachedPair replaces the record under a
// representative pair whose ΠM verdict is cached, with both records
// freshly allocated rather than recycled, and the pair's mergeability
// flipping: with Dmax=1, {1,2} and {4,5} cannot merge, {1} and {4,5} (a
// triangle) can. The neighbour record keeps its stamp, so only the fresh
// record's run tells the two verdicts apart: the fresh {1} starts with an
// empty run and settles (1, 4) afresh. A run a fresh record inherited
// would reuse the stale verdict and report ΠM where the oracle denies it.
func TestFreshRecordUnderCachedPair(t *testing.T) {
	const dmax = 1
	r := graph.NewRef()
	for _, e := range [][2]ident.NodeID{{1, 2}, {1, 4}, {1, 5}, {4, 5}} {
		r.AddEdge(e[0], e[1])
	}
	src := newScriptSource(dmax, graph.FromRef(r))
	tr := NewGroupTrackerSource(src)
	observe := func(tag string, wantM bool) {
		t.Helper()
		// No record to recycle: every newGroup of this Observe allocates.
		tr.free, tr.parked = nil, nil
		st := tr.Observe()
		checkAgainstOracle(t, tag, st, tr, metrics.Snapshot{}, src.snapshot(), false, dmax)
		if st.Maximality != wantM {
			t.Fatalf("%s: ΠM=%v, want %v", tag, st.Maximality, wantM)
		}
	}
	observe("singletons", false)

	src.setView(1, 1, 2)
	src.setView(2, 1, 2)
	src.setView(4, 4, 5)
	src.setView(5, 4, 5)
	observe("{1,2} beside {4,5}", true)
	a, b := groupOf(tr, 1), groupOf(tr, 4)
	verdict := func() pairRec {
		for _, v := range allVerdicts(tr) {
			if v.a == 1 && v.b == 4 {
				return v
			}
		}
		t.Fatalf("no verdict for the pair (1, 4)")
		return pairRec{}
	}
	before := verdict()

	src.remove(2)
	src.setView(1, 1)
	reused := src.reg.Get(introspect.CtrObsPairsReused)
	observe("{1} beside {4,5}", false)
	if groupOf(tr, 4) != b || b.topoGen != before.tb {
		t.Fatalf("the record of {4,5} changed or was restamped: the case no longer isolates the fresh record")
	}
	if groupOf(tr, 1) == a {
		t.Fatalf("{1} kept the record of {1,2}: the case no longer isolates the fresh record")
	}
	if got := src.reg.Get(introspect.CtrObsPairsReused) - reused; got != 0 || !verdict().mergeable {
		t.Fatalf("the fresh record of {1} reused %d verdicts, settling (1, 4) as mergeable=%v", got, verdict().mergeable)
	}
}

// TestRestampedRecordSettlesItsPairsAfresh adds an edge inside a group
// whose pair with its neighbour group is cached, with Dmax=3: {1,2,5} (the
// path 1–2–5) beside {3,4} across 5–3 spans the path 1–2–5–3–4 and cannot
// merge; the chord 1–5 brings every distance to 3 or less. The group keeps
// its record and is restamped, the neighbour keeps both, so only the run
// that restamp empties tells the two verdicts apart: a run kept through
// the restamp reuses the stale verdict and reports ΠM where the oracle
// denies it.
func TestRestampedRecordSettlesItsPairsAfresh(t *testing.T) {
	const dmax = 3
	r := graph.NewRef()
	for _, e := range [][2]ident.NodeID{{1, 2}, {2, 5}, {5, 3}, {3, 4}} {
		r.AddEdge(e[0], e[1])
	}
	src := newScriptSource(dmax, graph.FromRef(r))
	tr := NewGroupTrackerSource(src)
	tr.Observe()
	for _, v := range []ident.NodeID{1, 2, 5} {
		src.setView(v, 1, 2, 5)
	}
	src.setView(3, 3, 4)
	src.setView(4, 3, 4)
	st := tr.Observe()
	checkAgainstOracle(t, "{1,2,5} beside {3,4}", st, tr, metrics.Snapshot{}, src.snapshot(), false, dmax)
	a, b := groupOf(tr, 1), groupOf(tr, 3)
	stamp := b.topoGen

	r.AddEdge(1, 5)
	src.g = graph.FromRef(r)
	src.rows = append(src.rows, 1, 5)
	st = tr.Observe()
	checkAgainstOracle(t, "chord 1–5", st, tr, metrics.Snapshot{}, src.snapshot(), false, dmax)
	if groupOf(tr, 1) != a || groupOf(tr, 3) != b || b.topoGen != stamp {
		t.Fatalf("a record changed or {3,4} was restamped: the case no longer isolates the restamped record")
	}
	if st.Maximality {
		t.Fatalf("ΠM holds with {1,2,5} and {3,4} mergeable")
	}
}

// TestRebirthRescansNeighborGroups pins the one change of record that
// moves no row: node 3, removed and re-added inside a window, leaves
// {1,3} for a fresh {3}. Group {2} keeps its rows and its stamp, and had
// no group above it, so only the mark 3's re-addition leaves on its
// neighbors' records makes {2} rescan and count the edge 2–3 as (2, 3).
func TestRebirthRescansNeighborGroups(t *testing.T) {
	r := graph.NewRef()
	r.AddEdge(1, 3)
	r.AddEdge(2, 3)
	src := newScriptSource(2, graph.FromRef(r))
	tr := NewGroupTrackerSource(src)
	tr.Observe()
	src.setView(1, 1, 3)
	src.setView(3, 1, 3)
	prev := src.snapshot()
	st := tr.Observe()
	checkAgainstOracle(t, "{1,3} beside {2}", st, tr, metrics.Snapshot{}, prev, false, 2)
	src.rebirth(3)
	st = tr.Observe()
	checkAgainstOracle(t, "3 reborn", st, tr, prev, src.snapshot(), true, 2)
}

// pairRec is one verdict of the last scan as a test reads it: the pair's
// representatives and the stamps it was settled under.
type pairRec struct {
	a, b      ident.NodeID
	ta, tb    uint64
	mergeable bool
}

// pairPaths counts, over one Observe, the three ways scanPairs settles a
// pair: pairs whose groups two or more edges join (deduplicated within
// the lower group's scan), verdicts reused from the last scan (prev,
// copied before the Observe) and verdicts settled by BFS. It reads only
// the partition and the graph: a verdict with the stamps of a previous
// one was reused, and one without whose groups could not take the Dmax+1
// fast path ran the BFS.
func pairPaths(tr *GroupTracker, prev []pairRec) (deduped, reused, bfs int) {
	old := map[[2]ident.NodeID]pairRec{}
	for _, v := range prev {
		old[[2]ident.NodeID{v.a, v.b}] = v
	}
	for _, v := range allVerdicts(tr) {
		ga, gb := groupOf(tr, v.a), groupOf(tr, v.b)
		edges := 0
		for _, x := range ga.members {
			for _, u := range tr.prevG.NeighborsView(x) {
				if _, in := slices.BinarySearch(gb.members, u); in {
					edges++
				}
			}
		}
		if edges > 1 {
			deduped++
		}
		if p, ok := old[[2]ident.NodeID{v.a, v.b}]; ok && p.ta == v.ta && p.tb == v.tb {
			reused++
			continue
		}
		if ga.stretched || gb.stretched || len(ga.members)+len(gb.members) > tr.dmax+1 {
			bfs++
		}
	}
	return deduped, reused, bfs
}

// verdictBufs lists where each shard's verdicts are stored: a scan swaps
// every shard's two buffers, so the list moves exactly when one ran.
func verdictBufs(tr *GroupTracker) []*pairVerdict {
	var out []*pairVerdict
	for s := range tr.shards {
		out = append(out, unsafe.SliceData(tr.shards[s].verdicts))
	}
	return out
}

// cleanGroups counts the groups with pairs that the last scan did not walk:
// stamped no later than the scan before it (scanned) and with no member's
// neighbor that changed record this round.
func cleanGroups(tr *GroupTracker, scanned uint64) int {
	n := 0
	for s := range tr.reps {
		for _, a := range tr.reps[s] {
			if a.upN > 0 && a.topoGen <= scanned && a.nearRnd != tr.round {
				n++
			}
		}
	}
	return n
}

// allVerdicts copies every record's run of the last scan, owner by owner,
// each verdict with its owner's representative and stamp.
func allVerdicts(tr *GroupTracker) []pairRec {
	var out []pairRec
	for s := range tr.reps {
		for _, a := range tr.reps[s] {
			for _, v := range verdictRun(tr, a) {
				out = append(out, pairRec{a: a.rep, b: v.b.rep, ta: a.topoGen, tb: v.tb, mergeable: v.mergeable})
			}
		}
	}
	return out
}

// verdictRun is a's verdict run in its shard's buffer.
func verdictRun(tr *GroupTracker, a *group) []pairVerdict {
	return tr.shards[shard.Of(a.rep)].verdicts[a.upAt : a.upAt+a.upN]
}

// TestRecordListsTrackPartition holds the per-shard record lists to the
// partition after every Observe on a churning walled world (joins, leaves
// and one rebirth): every live record (the record of some tracked node) is
// listed exactly once, in its representative's shard, at the index it
// holds; no parked or free record is listed; and each record's verdict run
// names only live groups above it, ascending.
func TestRecordListsTrackPartition(t *testing.T) {
	const dmax = 3
	w := space.NewWorld(5)
	w.Walls = []space.Segment{{A: space.Point{X: 10, Y: -2}, B: space.Point{X: 10, Y: 12}}}
	ids := make([]ident.NodeID, 30)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	topo := engine.NewSpatialTopology(w,
		&mobility.Waypoint{Side: 20, SpeedMin: 0.5, SpeedMax: 2.5, Pause: 0.5},
		0.25, ids, rand.New(rand.NewSource(5)))
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: dmax}, Jitter: true, Seed: 5, Workers: 2}, topo)
	tr := NewGroupTracker(e)
	churn := rand.New(rand.NewSource(17))
	nextID := ident.NodeID(100)
	pairs := 0
	for r := 1; r <= 60; r++ {
		order := e.Order()
		switch {
		case r == 30:
			v := order[churn.Intn(len(order))]
			p, _ := w.Pos(v)
			e.RemoveNode(v)
			w.Remove(v)
			w.Place(v, p.Add(1, 1))
			e.AddNode(v)
		case r%4 == 1 && len(order) > 10:
			v := order[churn.Intn(len(order))]
			e.RemoveNode(v)
			w.Remove(v)
		case r%4 == 3:
			w.Place(nextID, space.Point{X: churn.Float64() * 20, Y: churn.Float64() * 20})
			e.AddNode(nextID)
			nextID++
		}
		e.StepRound()
		tr.Observe()
		live := map[*group]bool{}
		for i := range tr.nodes {
			if tr.nodes[i].id != ident.None {
				live[tr.nodes[i].grp] = true
			}
		}
		listed := map[*group]bool{}
		for s := range tr.reps {
			for i, a := range tr.reps[s] {
				if listed[a] || !live[a] || shard.Of(a.rep) != s || int(a.at) != i {
					t.Fatalf("round %d: shard %d lists %v at %d (index held %d, listed before %v, live %v)",
						r, s, a.members, i, a.at, listed[a], live[a])
				}
				listed[a] = true
			}
		}
		if len(listed) != len(live) {
			t.Fatalf("round %d: %d records listed, %d live", r, len(listed), len(live))
		}
		for _, grp := range append(slices.Clone(tr.parked), tr.free...) {
			if listed[grp] {
				t.Fatalf("round %d: a destroyed record is listed", r)
			}
		}
		for a := range listed {
			last := a.rep
			for _, v := range verdictRun(tr, a) {
				if !listed[v.b] || v.b.rep <= last {
					t.Fatalf("round %d: the run of %v names %v after %d (live %v)", r, a.members, v.b.members, last, listed[v.b])
				}
				last = v.b.rep
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no record held a verdict: the run check is vacuous")
	}
}

// TestTrackerFootprint pins what settling ΠM without a map leaves in the
// heap, on a parked world (2 % movers) of 2 000 nodes over 50 rounds: each
// shard's two verdict buffers and the workers' neighbor-group scratch hold
// at most 110 B per graph edge at the run's peak (measured 91.2), and the
// tracker keeps no map (the group index is an ident.Table; the nodes a
// view change affects are read from the view): two value maps of verdicts
// held 7.3 MB at parked-commuter's n = 20 000. A verdict is 24 B: the
// upper record, its stamp and the bit. A node's cache holds no
// neighborhood, no view hash and no neighbor count, only its two view
// buffers: 80 B.
func TestTrackerFootprint(t *testing.T) {
	cfg := SoakConfig{N: 2000, ActiveFraction: 0.02, Seed: 1, Workers: 2}
	w, mob, ids := BuildSoakWorld(&cfg)
	topo := engine.NewSpatialTopology(w, mob, cfg.DT, ids, rand.New(rand.NewSource(cfg.Seed)))
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: cfg.Dmax}, Seed: cfg.Seed, Workers: cfg.Workers}, topo)
	tr := NewGroupTracker(e)
	var st RoundStats
	peak := 0
	for r := 0; r < 50; r++ {
		e.StepRound()
		st = tr.Observe()
		peak = max(peak, st.Edges)
	}
	verdicts, nbrs := 0, 0
	for s := range tr.shards {
		verdicts += cap(tr.shards[s].verdicts) + cap(tr.shards[s].spare)
	}
	for _, ws := range tr.ws {
		nbrs += cap(ws.nbrs)
	}
	verdictSize := int(unsafe.Sizeof(pairVerdict{}))
	held := verdicts*verdictSize + nbrs*int(unsafe.Sizeof((*group)(nil)))
	perEdge := float64(held) / float64(peak)
	t.Logf("peak %d edges, now %d with %d boundary edges: 2 buffers of %d verdicts in all (%d B), %d neighbor groups of scratch: %.1f B an edge",
		peak, st.Edges, st.ExternalEdges, verdicts, verdicts*verdictSize, nbrs, perEdge)
	if verdictSize != 24 {
		t.Errorf("a verdict is %d B, want 24", verdictSize)
	}
	if size := unsafe.Sizeof(nodeState{}); size != 80 {
		t.Errorf("a node's cache is %d B, want 80", size)
	}
	var bufs []string
	typ := reflect.TypeOf(nodeState{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Slice {
			bufs = append(bufs, typ.Field(i).Name)
		}
	}
	if got := fmt.Sprint(bufs); got != "[view spare]" {
		t.Errorf("a node's cache holds the slices %s, want only its two view buffers", got)
	}
	if perEdge > 110 {
		t.Errorf("the pair state holds %.1f B per edge at a peak of %d edges, want at most 110", perEdge, peak)
	}
	var maps []string
	for _, v := range []any{GroupTracker{}, trackerShard{}, workerScratch{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type.Kind() == reflect.Map {
				maps = append(maps, typ.Name()+"."+typ.Field(i).Name)
			}
		}
	}
	if len(maps) > 0 {
		t.Errorf("the tracker keeps the maps %v, want none", maps)
	}
}
