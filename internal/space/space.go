// Package space models the Euclidean plane the nodes move in and the
// vicinity relation of the paper's system model: a link u→v exists when u
// is in the vicinity of v, which depends on positions, one radio range
// and obstacles — so every link is symmetric, and a broadcast reaches its
// sender's row of SymmetricGraph. Asymmetric links are the radio layer's
// to model (fault.AsymLoss).
//
// The graph is served by an incremental bucket-grid index (see grid.go):
// candidate neighbors come from a 3×3 cell neighborhood instead of the
// full population, walls are tested from a segment-to-cell index, and
// SymmetricGraph is a deterministic shard-parallel build that is cached on
// the world's generation — recomputed only when something actually moved
// or the configuration changed.
package space

import (
	"math"
	"slices"

	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/shard"
)

// Point is a position in the plane.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance to o, alike on every target.
func (p Point) Dist(o Point) float64 { return fp.Hypot(p.X-o.X, p.Y-o.Y) }

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// Segment is an obstacle wall blocking radio line of sight.
type Segment struct{ A, B Point }

// World holds node positions and the vicinity parameters.
//
// The configuration fields are public for construction-time convenience.
// Reassigning Walls wholesale is detected automatically; after changing
// Range or a wall in place once the world has been queried, use SetWalls
// or call Invalidate so the spatial index rebuilds. Structural
// mutation must not race with queries: the engine only mutates the world
// in its sequential phases.
//
// Two records say what a rebuild changed. RowsChanged serves, for one
// delta step, a superset of the rows that may differ (the engine's
// receiver caches need only "unchanged" to be proved). The changed-row
// record, once armed (TrackRows), collects across rebuilds exactly the
// nodes whose row content changed until a consumer drains it (DrainRows):
// what an observer that re-derives state from changed rows needs.
type World struct {
	// Range is the transmission range of every node.
	Range float64
	// Walls block links whose straight line crosses them.
	Walls []Segment
	// Workers sets the fan-out width of the parallel SymmetricGraph
	// build; 0 or 1 builds inline. The graph content is identical at any
	// width. Set it before the first SymmetricGraph call (BuildSoakWorld
	// does): engine.New fills a zero in from its own Workers, but by then
	// NewSpatialTopology has already built the first graph inline.
	Workers int
	// disableDelta forces every SymmetricGraph rebuild down the full
	// FromRows path even when the delta-incremental patch would apply:
	// the tests' seam for holding the delta path to the full one.
	disableDelta bool

	pos ident.Table[Point]

	// ids is the cached ascending roster, rebuilt lazily after
	// membership churn (idsDirty) — motion alone never invalidates it.
	ids      []ident.NodeID
	idsDirty bool

	// gen counts observable changes to the vicinity inputs: node
	// placement/removal, actual motion, and structural rebuilds.
	// Place with an unchanged position does not bump it, which is what
	// lets stationary ticks reuse every downstream cache.
	gen uint64

	// Bucket grid (grid.go). cells is nil until the first query lays it
	// out; dirty plus the walls fingerprint trigger structural
	// rebuilds. Entries carry the node's position inline; a node's bucket
	// is bucketAt of its position, kept nowhere else.
	cellSize  float64
	cells     [][]cellNode // bucket → occupants
	freeCells [][]cellNode // emptied buckets' slices, for gridInsert
	wallCells [][]int      // bucket → walls registered there; nil without walls
	xBits     uint
	mx, my    int // bucket array extent per axis, minus one
	laidOut   int // population at the last layout
	dirty     bool
	wallsLen  int
	wallsPtr  *Segment

	// Row-scan scratch (scanRows in grid.go: per shard the nodes to scan,
	// their rows and the rows' storage; rowBuf is the shard-order merge
	// handed to graph.FromRows or graph.ApplyDelta) and the
	// generation-keyed graph cache.
	shardNodes [shard.N][]ident.NodeID
	shardAdjs  [shard.N][]graph.NodeAdj
	shardNbrs  [shard.N][]ident.NodeID
	rowBuf     []graph.NodeAdj
	symGraph   *graph.G
	symGen     uint64

	// Delta-rebuild bookkeeping (grid.go): movedDirty accumulates, since
	// the last committed graph build, the nodes whose position actually
	// changed; deltaFull poisons the delta path until the next full
	// rebuild (membership churn, structural reindex, or a dirty set past
	// the worthwhile fraction).
	movedDirty  []ident.NodeID
	movedUnique int // distinct movers at the last compaction
	deltaFull   bool

	// Row-delta record for RowsChanged: when the cached graph was produced
	// by one delta step from rowDirtyFrom, rowDirty holds (a superset of)
	// the nodes whose receiver row differs between the two. A full rebuild
	// clears the record.
	rowDirty     []ident.NodeID
	rowDirtyFrom *graph.G
	rowDirtyTo   *graph.G

	// Changed-row record (TrackRows, DrainRows): rows accumulates while
	// rowsOn; rowsUnique is its length at the last compaction, shardRows
	// scanRows' per-shard share of a full rebuild's.
	rowsOn     bool
	rows       []ident.NodeID
	rowsUnique int
	shardRows  [shard.N][]ident.NodeID
}

// NewWorld returns an empty world with the given range.
func NewWorld(txRange float64) *World {
	return &World{Range: txRange}
}

// Generation returns a counter that increases whenever the world's
// observable vicinity inputs change: a node moved, joined or left, or
// the range/wall configuration was (detectably) altered. Consumers that
// cache topology derived from the world key their caches on it.
func (w *World) Generation() uint64 { return w.gen }

// Invalidate forces the spatial index to rebuild on the next query. Call
// it after changing Range or wall endpoints in place; wholesale
// reassignment of Walls is detected without it.
func (w *World) Invalidate() {
	w.dirty = true
	w.gen++
}

// SetWalls replaces the obstacle set and keeps the index consistent.
func (w *World) SetWalls(walls []Segment) {
	w.Walls = walls
	w.Invalidate()
}

// Place sets v's position (adding v if unknown). Placing a node at its
// current position is a no-op: the generation does not move, so cached
// topology stays valid across stationary ticks.
func (w *World) Place(v ident.NodeID, p Point) {
	old, existed := w.pos.Get(v)
	if existed && old == p {
		return
	}
	w.pos.Set(v, p)
	w.gen++
	if existed {
		w.markMoved(v)
	} else {
		w.idsDirty = true
		w.deltaFull = true // membership grew: the next rebuild is full
	}
	if w.cells == nil {
		return // index not built yet; the first query inserts everyone
	}
	if existed {
		b := w.bucketAt(old)
		if b == w.bucketAt(p) {
			// Same bucket: refresh the inline position.
			lst := w.cells[b]
			for i := range lst {
				if lst[i].id == v {
					lst[i].pt = p
					break
				}
			}
			return
		}
		w.gridRemove(v, b)
	}
	w.gridInsert(v, p)
}

// Remove deletes v from the world (node became inactive / left).
func (w *World) Remove(v ident.NodeID) {
	p, ok := w.pos.Get(v)
	if !ok {
		return
	}
	w.pos.Delete(v)
	w.gen++
	w.idsDirty = true
	w.deltaFull = true // membership shrank: the next rebuild is full
	if w.cells != nil {
		w.gridRemove(v, w.bucketAt(p))
	}
}

// Pos returns v's position and whether v is present.
func (w *World) Pos(v ident.NodeID) (Point, bool) { return w.pos.Get(v) }

// Nodes returns all present nodes in ascending order. The slice is the
// world's cached roster: callers must not mutate it. It stays intact when
// held across churn: a Place of a new node or a Remove makes the next call
// build a fresh slice, and mere motion keeps serving the same one.
func (w *World) Nodes() []ident.NodeID {
	if w.idsDirty {
		ids := make([]ident.NodeID, 0, w.pos.Len())
		for v := range w.pos.All() { // ascending
			ids = append(ids, v)
		}
		w.ids = ids
		w.idsDirty = false
	}
	return w.ids
}

// CanReach reports whether a transmission by u is receivable by v (u is
// in the vicinity of v): both present, within range, and no wall between
// them — the link predicate SymmetricGraph's rows hold, evaluated on its
// own. Wall tests go through the segment-to-cell index, so the cost is
// O(walls near the link), not O(all walls).
func (w *World) CanReach(u, v ident.NodeID) bool {
	if u == v {
		return false
	}
	pu, ok := w.pos.Get(u)
	if !ok {
		return false
	}
	pv, ok := w.pos.Get(v)
	if !ok {
		return false
	}
	w.validate()
	if pu.Dist(pv) > w.Range {
		return false
	}
	return !w.wallBlocked(pu, pv)
}

// SymmetricGraph returns the undirected graph of bidirectional links —
// the topology G_c the specification predicates are evaluated on. Nodes
// present in the world always appear, even isolated. The result is
// cached on the world generation: when nothing moved since the last
// call, the same graph (same pointer) is returned, so downstream receiver
// caches stay hot. Like every graph.G, the result is never edited.
// Rebuilds go down one of two paths with identical results, both fed by
// scanRows: when only a small fraction of nodes moved since the last
// build (and the membership and radio configuration stayed put), the
// movers' rows patch the previous CSR through graph.ApplyDelta, in the
// previous graph's row era; otherwise every node's row is laid out by
// graph.FromRows, which starts a new one (graph.Row).
func (w *World) SymmetricGraph() *graph.G {
	w.validate()
	if w.symGraph != nil && w.symGen == w.gen {
		return w.symGraph
	}
	nodes := w.Nodes()
	var g *graph.G
	if w.deltaViable(len(nodes)) {
		// An edge can appear or disappear only if an endpoint moved, so the
		// movers' rows (deltaViable sorted and deduplicated the set)
		// describe every change. prev's mover rows are read first: a retired
		// prev (see graph.ApplyDelta) has none afterwards.
		prev, upd := w.symGraph, w.scanRows(w.movedDirty, false)
		w.recordRowDelta(prev, upd)
		var changed *[]ident.NodeID
		if w.rowsOn {
			changed = &w.rows
		}
		g = graph.ApplyDelta(prev, upd, changed)
		w.rowDirtyFrom, w.rowDirtyTo = prev, g
	} else {
		// prev lends its node index when the roster is the same, and its
		// storage when it was retired: a new row era either way. The scan
		// diffs the rows against prev's before FromRows may rewrite them.
		g = graph.FromRows(w.symGraph, nodes, w.scanRows(nodes, w.rowsOn))
		w.rowDirtyFrom, w.rowDirtyTo = nil, nil
	}
	if len(w.rows) >= 2*max(len(nodes), w.rowsUnique) {
		// Undrained: the repeats go, so the record stays O(n).
		slices.Sort(w.rows)
		w.rows = slices.Compact(w.rows)
		w.rowsUnique = len(w.rows)
	}
	w.symGraph, w.symGen = g, w.gen
	w.movedDirty = w.movedDirty[:0]
	w.movedUnique = 0
	w.deltaFull = false
	return g
}

// RowsChanged returns (a superset of) the nodes whose graph.Row may
// differ between the graph since and the currently cached graph, plus
// true — or (nil, false) when the current graph is not one delta step
// from since (full rebuild, membership churn, stale cache). With a true
// return both graphs are of one row era and every node absent from the
// slice is guaranteed a Same row in both, so a driver can invalidate its
// receiver caches per-node instead of wholesale. The slice aliases
// internal storage: read-only, valid until the next rebuild.
func (w *World) RowsChanged(since *graph.G) ([]ident.NodeID, bool) {
	w.validate()
	if w.symGraph == nil || w.symGen != w.gen {
		return nil, false
	}
	if w.rowDirtyFrom == nil || w.rowDirtyFrom != since || w.rowDirtyTo != w.symGraph {
		return nil, false
	}
	return w.rowDirty, true
}

// TrackRows arms the changed-row record that DrainRows hands over:
// from here on every rebuild records the nodes whose row it changed. The
// record is exact, unlike RowsChanged's superset: a delta rebuild records
// the rows graph.ApplyDelta reports, a full one every row its scan finds
// different from the previous graph's, a node new to the graph included.
func (w *World) TrackRows() { w.rowsOn = true }

// DrainRows hands over the changed-row record and empties it: every node
// whose row differs between at and the graph current at the previous
// drain is listed, with repeats, perhaps beside a few whose row changed
// back. When the record is not armed, or at is not the world's current
// graph (a rebuild ran past it), it answers all instead and keeps the
// record. The slice aliases the record: read-only, valid until the next
// rebuild.
func (w *World) DrainRows(at *graph.G) (ids []ident.NodeID, all bool) {
	if !w.rowsOn || at != w.symGraph {
		return nil, true
	}
	ids = w.rows
	w.rows, w.rowsUnique = w.rows[:0], 0
	return ids, false
}

// recordRowDelta derives the RowsChanged set of a delta rebuild from prev
// and the update rows about to be applied to it: an edge can only
// have appeared or disappeared between a mover and a member of its old or
// new row, so movers plus both rows cover every changed row. The set
// overapproximates — a neighbor that kept its edge to a mover is listed
// though its row is unchanged — which only costs the driver a cheap
// revalidation, never a stale cache.
func (w *World) recordRowDelta(prev *graph.G, updates []graph.NodeAdj) {
	d := w.rowDirty[:0]
	for _, upd := range updates {
		d = append(d, upd.Node)
		d = append(d, upd.Adj...)
		if i := prev.IndexOf(upd.Node); i >= 0 {
			d = append(d, prev.NeighborsAt(i)...)
		}
	}
	slices.Sort(d)
	w.rowDirty = slices.Compact(d)
}

// segmentsCross reports proper intersection between segments pq and ab
// (shared endpoints count as crossing — a wall touching the link blocks it,
// the conservative choice for an obstacle model).
func segmentsCross(p, q, a, b Point) bool {
	d1 := orient(a, b, p)
	d2 := orient(a, b, q)
	d3 := orient(p, q, a)
	d4 := orient(p, q, b)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return onSegment(a, b, p) || onSegment(a, b, q) || onSegment(p, q, a) || onSegment(p, q, b)
}

// orient is the sign-carrying cross product (b−a)×(c−a), each product
// rounded on its own (fp says why).
func orient(a, b, c Point) float64 {
	return float64((b.X-a.X)*(c.Y-a.Y)) - float64((b.Y-a.Y)*(c.X-a.X))
}

func onSegment(a, b, p Point) bool {
	if orient(a, b, p) != 0 {
		return false
	}
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}
