// Bucket-grid vicinity index: a uniform grid of cells over the plane,
// folded onto a fixed power-of-two bucket array, maintained incrementally
// by Place/Remove, plus the walls registered in the same buckets and the
// deterministic shard-parallel SymmetricGraph build on top of both.
//
// The cell size is the world's Range, so any link fits inside one cell
// diagonal step: all candidate neighbors of a node lie in the 3×3 cell
// block around it, and every wall that can cross a link is registered in
// one of the (at most 2×2) cells the link's bounding box overlaps. Row
// candidate sets and wall tests are therefore O(local density) instead of
// O(n) and O(walls).
//
// Cells farther apart than the bucket array share a bucket, which changes
// no row (DESIGN.md §2.2): the 3×3 block names nine distinct buckets, and
// an aliased node or wall fails the distance or crossing test.
package space

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/shard"
)

// cellKey addresses one grid cell.
type cellKey struct{ cx, cy int }

// cellNode is one grid occupant with its position inlined: the vicinity
// scans read candidate positions from the bucket itself instead of
// looking them up per candidate.
type cellNode struct {
	id ident.NodeID
	pt Point
}

// cellAt returns the cell containing p (floor division, so negative
// coordinates fold consistently).
func (w *World) cellAt(p Point) cellKey {
	return cellKey{int(math.Floor(p.X / w.cellSize)), int(math.Floor(p.Y / w.cellSize))}
}

// bucket returns the bucket index of cell (cx, cy).
func (w *World) bucket(cx, cy int) int { return (cy&w.my)<<w.xBits | cx&w.mx }

// bucketAt returns the bucket index of the cell containing p.
func (w *World) bucketAt(p Point) int {
	k := w.cellAt(p)
	return w.bucket(k.cx, k.cy)
}

// validate makes the derived structures (grid, wall index, cell size)
// consistent with the public configuration fields. The clean-path check
// is read-only and O(1): a rebuild is triggered by the first use (or the
// first after the population doubled), an explicit Invalidate, or a
// reassignment of the Walls slice (length + backing pointer). Changing
// Range or a wall in place is invisible to these heuristics — callers
// doing that must call Invalidate (or use SetWalls, which does).
func (w *World) validate() {
	if w.cells != nil && !w.dirty && w.pos.Len() <= 2*max(w.laidOut, 8) &&
		len(w.Walls) == w.wallsLen && (len(w.Walls) == 0 || &w.Walls[0] == w.wallsPtr) {
		return
	}
	w.rebuildIndex()
}

// rebuildIndex rederives the cell size from the range, lays out the
// buckets and re-inserts every node and wall. O(n + walls·cells per
// wall); runs only on structural changes, never on mere motion.
func (w *World) rebuildIndex() {
	w.cellSize = w.Range
	if !(w.cellSize > 0) {
		// A world with no positive range has no links; any cell size
		// keeps the grid well defined.
		w.cellSize = 1
	}
	w.layout()
	for v, p := range w.pos.All() {
		w.gridInsert(v, p)
	}
	w.wallCells = nil
	if len(w.Walls) > 0 {
		w.wallCells = make([][]int, len(w.cells))
	}
	for i, s := range w.Walls {
		lo := w.cellAt(Point{math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y)})
		hi := w.cellAt(Point{math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y)})
		// A wall longer than the array registers in each bucket once.
		for cx := lo.cx; cx <= min(hi.cx, lo.cx+w.mx); cx++ {
			for cy := lo.cy; cy <= min(hi.cy, lo.cy+w.my); cy++ {
				b := w.bucket(cx, cy)
				w.wallCells[b] = append(w.wallCells[b], i)
			}
		}
	}
	w.wallsLen = len(w.Walls)
	w.wallsPtr = nil
	if len(w.Walls) > 0 {
		w.wallsPtr = &w.Walls[0]
	}
	w.dirty = false
	w.deltaFull = true // range or walls changed: every link is suspect
	w.gen++
}

// layout sizes an empty bucket array for the current population: per
// axis a power of two, at least 4, grown towards the span of the occupied
// cells while the array stays within about two buckets a node. A wider
// world folds onto the array, so the grid is O(n) whatever the coordinates.
func (w *World) layout() {
	lo, hi := cellKey{math.MaxInt, math.MaxInt}, cellKey{math.MinInt, math.MinInt}
	for _, p := range w.pos.All() {
		k := w.cellAt(p)
		lo, hi = cellKey{min(lo.cx, k.cx), min(lo.cy, k.cy)}, cellKey{max(hi.cx, k.cx), max(hi.cy, k.cy)}
	}
	nx, ny := 4, 4
	for nx*ny <= w.pos.Len() {
		if growX, growY := nx <= hi.cx-lo.cx, ny <= hi.cy-lo.cy; growX && (!growY || nx <= ny) {
			nx *= 2
		} else if growY {
			ny *= 2
		} else {
			break
		}
	}
	w.xBits, w.mx, w.my = uint(bits.TrailingZeros(uint(nx))), nx-1, ny-1
	w.cells = make([][]cellNode, nx*ny)
	w.laidOut = w.pos.Len()
}

// deltaFraction bounds how large the moved set may grow, relative to the
// population, before the delta rebuild stops paying: past roughly a
// quarter of the nodes, re-scanning the movers plus patching their
// neighbors' rows costs about as much as the full sharded rebuild (which
// also packs the whole CSR into one arena), so the builder falls back.
const deltaFraction = 4

// markMoved records a changed position for the delta rebuild. The slice
// may hold the same node several times (a mover Placed on every tick
// between two rebuilds); the poisoning decision therefore counts *unique*
// movers — once raw appends cross the threshold, the slice is compacted
// and tracking gives up only if the distinct count is past it too. The
// doubling guard (compact again only after the raw length doubles the
// known-distinct count) keeps the compaction cost amortized O(1) per
// Place; the all-moving random-waypoint regime still pays only a branch
// and an append until the first compaction poisons it for the cycle.
func (w *World) markMoved(v ident.NodeID) {
	if w.deltaFull {
		return
	}
	if limit := w.pos.Len() / deltaFraction; len(w.movedDirty) >= limit &&
		len(w.movedDirty) >= 2*w.movedUnique {
		slices.Sort(w.movedDirty)
		w.movedDirty = slices.Compact(w.movedDirty)
		w.movedUnique = len(w.movedDirty)
		if w.movedUnique >= limit {
			w.deltaFull = true
			w.movedDirty = w.movedDirty[:0]
			w.movedUnique = 0
			return
		}
	}
	w.movedDirty = append(w.movedDirty, v)
}

// deltaViable reports whether the next rebuild may take the delta path:
// a previous graph exists over the identical roster and configuration,
// the *distinct* moved set stayed under the worthwhile fraction, and the
// path is not disabled. The moved slice is compacted here (the delta
// build needs it sorted and unique anyway). An empty moved set with a
// stale generation can only follow an Invalidate — deltaFull covers it.
func (w *World) deltaViable(n int) bool {
	if w.disableDelta || w.deltaFull || w.symGraph == nil || len(w.movedDirty) == 0 {
		return false
	}
	slices.Sort(w.movedDirty)
	w.movedDirty = slices.Compact(w.movedDirty)
	w.movedUnique = len(w.movedDirty)
	return len(w.movedDirty) <= n/deltaFraction
}

// scanRows derives, from the grid, the complete ascending row of every
// node in ids: the nodes within range that no wall separates it from. It is the one vicinity scan behind both rebuilds —
// the movers' replacement rows for graph.ApplyDelta, every node's row for
// graph.FromRows. The scan fans out over the NodeID shards (shard.Run); workers
// only read shared state (pos, buckets, range, walls) and write their own
// shard's scratch, and the shards are merged in shard order, so the rows
// are identical at any worker count. The link predicate is evaluated from
// the lower ID's end whichever node is being scanned, so the two rows of
// an edge agree to the last bit of the wall test. With diff, every node
// whose row is not its row in the current graph, or that the graph lacks,
// is appended to the changed-row record (TrackRows), in shard order. The
// result aliases the world's scratch: valid until the next scan.
func (w *World) scanRows(ids []ident.NodeID, diff bool) []graph.NodeAdj {
	for s := range w.shardNodes {
		w.shardNodes[s] = w.shardNodes[s][:0]
	}
	for _, v := range ids {
		s := shard.Of(v)
		w.shardNodes[s] = append(w.shardNodes[s], v)
	}
	r, prev := w.Range, w.symGraph
	shard.Run(w.Workers, func(s, _ int) {
		adjs := w.shardAdjs[s][:0]
		nbrs := w.shardNbrs[s][:0]
		changed := w.shardRows[s][:0]
		for _, u := range w.shardNodes[s] {
			pu, _ := w.pos.Get(u)
			k := w.cellAt(pu)
			start := len(nbrs)
			for cx := k.cx - 1; cx <= k.cx+1; cx++ {
				for cy := k.cy - 1; cy <= k.cy+1; cy++ {
					for _, c := range w.cells[w.bucket(cx, cy)] {
						if c.id == u {
							continue
						}
						// Dist decides; two candidates in three of a 3×3 block
						// are out of range by far more than any rounding of the
						// squares and are dropped before it. The squares are
						// rounded on their own, unfused (fp says why).
						dx, dy := pu.X-c.pt.X, pu.Y-c.pt.Y
						if float64(dx*dx)+float64(dy*dy) > r*r*(1+1e-9) || pu.Dist(c.pt) > r {
							continue
						}
						a, b := pu, c.pt
						if c.id < u {
							a, b = b, a
						}
						if w.wallBlocked(a, b) {
							continue
						}
						nbrs = append(nbrs, c.id)
					}
				}
			}
			row := nbrs[start:len(nbrs):len(nbrs)]
			slices.Sort(row)
			adjs = append(adjs, graph.NodeAdj{Node: u, Adj: row})
			if diff && rowMoved(prev, u, row) {
				changed = append(changed, u)
			}
		}
		w.shardAdjs[s], w.shardNbrs[s], w.shardRows[s] = adjs, nbrs, changed
	})
	rows := w.rowBuf[:0]
	for s := range w.shardAdjs {
		rows = append(rows, w.shardAdjs[s]...)
		if diff {
			w.rows = append(w.rows, w.shardRows[s]...)
		}
	}
	w.rowBuf = rows
	return rows
}

// rowMoved reports whether row is not u's row in prev: u is new to prev,
// or its neighbors differ. Every row is new to a nil prev.
func rowMoved(prev *graph.G, u ident.NodeID, row []ident.NodeID) bool {
	if prev == nil {
		return true
	}
	i := prev.IndexOf(u)
	return i < 0 || !slices.Equal(prev.NeighborsAt(i), row)
}

// gridInsert adds v (already in pos) to its bucket; a bucket entered anew
// takes the slice some emptied bucket left behind, else one of four slots.
func (w *World) gridInsert(v ident.NodeID, p Point) {
	b := w.bucketAt(p)
	lst := w.cells[b]
	if n := len(w.freeCells); lst == nil && n > 0 {
		lst, w.freeCells = w.freeCells[n-1], w.freeCells[:n-1]
	} else if lst == nil {
		lst = make([]cellNode, 0, 4)
	}
	w.cells[b] = append(lst, cellNode{id: v, pt: p})
}

// gridRemove deletes v from bucket b (swap-delete; buckets are unordered,
// every consumer either sorts its output or builds a set).
func (w *World) gridRemove(v ident.NodeID, b int) {
	lst := w.cells[b]
	for i := range lst {
		if lst[i].id == v {
			lst[i] = lst[len(lst)-1]
			lst = lst[:len(lst)-1]
			break
		}
	}
	w.cells[b] = lst
	if len(lst) == 0 {
		w.cells[b], w.freeCells = nil, append(w.freeCells, lst)
	}
}

// wallBlocked reports whether a wall crosses the link pu–pv. It only
// tests walls registered in the buckets of the cells the link's bounding
// box overlaps; the caller guarantees the link is no longer than the cell
// size (every in-range link is, by the cell-size invariant), so that box
// spans at most 2×2 cells. A wall spanning two of those cells is tested twice —
// harmless for a pure predicate, and cheaper than deduplication, which
// would need mutable scratch and break the lock-free parallel build.
func (w *World) wallBlocked(pu, pv Point) bool {
	if len(w.Walls) == 0 {
		return false
	}
	k1, k2 := w.cellAt(pu), w.cellAt(pv)
	if k2.cx < k1.cx {
		k1.cx, k2.cx = k2.cx, k1.cx
	}
	if k2.cy < k1.cy {
		k1.cy, k2.cy = k2.cy, k1.cy
	}
	for cx := k1.cx; cx <= k2.cx; cx++ {
		for cy := k1.cy; cy <= k2.cy; cy++ {
			for _, i := range w.wallCells[w.bucket(cx, cy)] {
				s := &w.Walls[i]
				if segmentsCross(pu, pv, s.A, s.B) {
					return true
				}
			}
		}
	}
	return false
}
