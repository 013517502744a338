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
	"repro/internal/shard"
)

// scriptSource is a Source whose graph and views a test writes directly:
// no protocol runs, so a partition can be laid out round by round.
type scriptSource struct {
	dmax    int
	g       *graph.G
	roster  *engine.Roster
	viewers []*scriptViewer // by slot; nil when free
	dirty   [shard.N][]int32
	removed []engine.RemovedNode
	rows    []ident.NodeID // the changed-row record: exact
	reg     *introspect.Registry
}

type scriptViewer struct {
	ver  uint64
	view []ident.NodeID
}

func (v *scriptViewer) ViewVersion() uint64                          { return v.ver }
func (v *scriptViewer) AppendView(dst []ident.NodeID) []ident.NodeID { return append(dst, v.view...) }

// newScriptSource builds a world of g's nodes, every view {self}.
func newScriptSource(dmax int, g *graph.G) *scriptSource {
	src := &scriptSource{dmax: dmax, g: g, roster: engine.NewRoster(g.NumNodes()), reg: introspect.NewRegistry(shard.N)}
	for _, v := range g.Nodes() {
		src.roster.Add(v)
		src.viewers = append(src.viewers, &scriptViewer{ver: 1, view: []ident.NodeID{v}})
	}
	return src
}

// setView gives v the view members and reports v as computed.
func (src *scriptSource) setView(v ident.NodeID, members ...ident.NodeID) {
	s := src.roster.SlotOf(v)
	src.viewers[s].ver++
	src.viewers[s].view = slices.Sorted(slices.Values(members))
	src.dirty[shard.Of(v)] = append(src.dirty[shard.Of(v)], s)
}

// remove takes v out of the world and the graph: v's neighbors' rows
// change.
func (src *scriptSource) remove(v ident.NodeID) {
	s, _ := src.roster.Remove(v)
	src.viewers[s] = nil
	src.removed = append(src.removed, engine.RemovedNode{ID: v, Slot: s})
	src.rows = append(src.rows, src.g.NeighborsView(v)...)
	r := graph.RefOf(src.g)
	r.RemoveNode(v)
	src.g = graph.FromRef(r)
}

// rebirth removes v and adds it again inside one window, its view reset
// to {v} and the graph left as it was: no row changes.
func (src *scriptSource) rebirth(v ident.NodeID) {
	s, _ := src.roster.Remove(v)
	src.removed = append(src.removed, engine.RemovedNode{ID: v, Slot: s})
	src.viewers[s] = nil
	s, _ = src.roster.Add(v)
	if int(s) == len(src.viewers) {
		src.viewers = append(src.viewers, nil)
	}
	src.viewers[s] = &scriptViewer{ver: 1, view: []ident.NodeID{v}}
}

// snapshot is the oracle's view of the current configuration.
func (src *scriptSource) snapshot() metrics.Snapshot {
	views := map[ident.NodeID]map[ident.NodeID]bool{}
	for _, v := range src.roster.IDs() {
		views[v] = map[ident.NodeID]bool{}
		for _, u := range src.viewers[src.roster.SlotOf(v)].view {
			views[v][u] = true
		}
	}
	return metrics.Snapshot{G: src.g, Views: views}
}

func (src *scriptSource) Workers() int                     { return 1 }
func (src *scriptSource) Dmax() int                        { return src.dmax }
func (src *scriptSource) TrackDirty()                      {}
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

func (src *scriptSource) ViewerAtSlot(s int32) Viewer {
	if v := src.viewers[s]; v != nil {
		return v
	}
	return nil
}

func (src *scriptSource) DrainDirty(fn func([shard.N][]int32, []ident.NodeID, []engine.RemovedNode)) {
	fn(src.dirty, nil, src.removed)
	for s := range src.dirty {
		src.dirty[s] = nil
	}
	src.removed = nil
}

// TestFreshRecordUnderCachedPair replaces the record under a
// representative pair whose ΠM verdict is cached, with both records
// freshly allocated rather than recycled, and the pair's mergeability
// flipping: with Dmax=1, {1,2} and {4,5} cannot merge, {1} and {4,5} (a
// triangle) can. Only the fresh record's stamp tells the two verdicts
// apart — the neighbour record keeps its own — so a stamp a fresh record
// shares with another (left at zero, or counted per record) reuses the
// stale verdict and reports ΠM where the oracle denies it.
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
	b := groupOf(tr, 4)
	verdict := func() pairVerdict {
		for _, v := range tr.shards[shard.Of(1)].verdicts {
			if v.k == (pairKey{a: 1, b: 4}) {
				return v
			}
		}
		t.Fatalf("no verdict for the pair (1, 4)")
		return pairVerdict{}
	}
	before := verdict()

	src.remove(2)
	src.setView(1, 1)
	observe("{1} beside {4,5}", false)
	if groupOf(tr, 4) != b || b.topoGen != before.tb {
		t.Fatalf("the record of {4,5} changed or was restamped: the case no longer isolates the fresh record")
	}
	if after := verdict(); after.ta == before.ta {
		t.Fatalf("the fresh record of {1} took stamp %d, the stamp its predecessor's verdict holds", after.ta)
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

// pairPaths counts, over one Observe, the three ways scanPairs settles a
// pair: pairs whose groups two or more edges join (deduplicated within
// the lower group's scan), verdicts reused from the last scan (prev,
// copied before the Observe) and verdicts settled by BFS. It reads only
// the partition and the graph: a verdict with the stamps of a previous
// one was reused, and one without whose groups could not take the Dmax+1
// fast path ran the BFS.
func pairPaths(tr *GroupTracker, prev []pairVerdict) (deduped, reused, bfs int) {
	old := map[pairKey]pairVerdict{}
	for _, v := range prev {
		old[v.k] = v
	}
	for _, v := range allVerdicts(tr) {
		ga, gb := groupOf(tr, v.k.a), groupOf(tr, v.k.b)
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
		if p, ok := old[v.k]; ok && p.ta == v.ta && p.tb == v.tb {
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
	n, last := 0, ident.None
	for _, v := range allVerdicts(tr) {
		if a := groupOf(tr, v.k.a); v.k.a != last && a.topoGen <= scanned && a.nearRnd != tr.round {
			n++
		}
		last = v.k.a
	}
	return n
}

// allVerdicts copies every shard's verdicts of the last scan.
func allVerdicts(tr *GroupTracker) []pairVerdict {
	var out []pairVerdict
	for o := range tr.shards {
		out = append(out, tr.shards[o].verdicts...)
	}
	return out
}

// TestTrackerFootprint pins what settling ΠM without a map leaves in the
// heap, on a parked world (2 % movers) of 2 000 nodes over 50 rounds: each
// shard's two verdict buffers and the workers' neighbor-group scratch hold
// at most 110 B per graph edge at the run's peak (measured 100.6), and the
// tracker keeps no map (the group index is an ident.Table; the nodes a
// view change affects are read from the view): two value maps of verdicts
// held 7.3 MB at parked-commuter's n = 20 000. A node's cache holds no
// neighborhood, no view hash and no neighbor count, only its two view
// buffers: 88 B.
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
	if verdictSize != 32 {
		t.Errorf("a verdict is %d B, want 32", verdictSize)
	}
	if size := unsafe.Sizeof(nodeState{}); size != 88 {
		t.Errorf("a node's cache is %d B, want 88", size)
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
