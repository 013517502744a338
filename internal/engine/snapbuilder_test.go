package engine

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
)

// TestSnapshotGraphAllLiveIsZeroCopy pins the cost of the per-round
// topology hand-off in a dynamic network, where the source pointer moves
// on every call and the builder's cache can never hit: with every node
// live the restriction is the source itself, held, and costs nothing.
func TestSnapshotGraphAllLiveIsZeroCopy(t *testing.T) {
	const n = 2000
	srcs := [2]*graph.G{graph.Grid(n/50, 50), graph.Grid(n/50, 50)}
	live := func(ident.NodeID) bool { return true }
	var b snapshotBuilder
	call := 0
	step := func() {
		src := srcs[call%2]
		call++
		if got := b.Graph(src, 1, live); got != src {
			t.Fatalf("call %d: restricted graph %v of %v is not the source", call, got, src)
		}
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("all-live snapshot graph: %.0f allocs per call, want 0", allocs)
	}
}

// TestLiveBorrowsWhenEveryNodeIsLive: Live is src itself — no sibling, so a
// retired src still hands its row header on — exactly when Graph would be
// the identity restriction, and Graph's copy otherwise.
func TestLiveBorrowsWhenEveryNodeIsLive(t *testing.T) {
	src := graph.ApplyDelta(graph.Line(6), nil, nil)
	var b snapshotBuilder
	if got := b.Live(src, 1, func(ident.NodeID) bool { return true }); got != src {
		t.Fatal("every node live: Live must serve src itself")
	}
	notSix := func(v ident.NodeID) bool { return v != 6 }
	part := b.Live(src, 2, notSix)
	if part == src || part.HasNode(6) || part != b.Graph(src, 2, notSix) {
		t.Fatalf("node 6 not live: Live must serve Graph's restricted copy, got %v", part)
	}
	src.Retire()
	child := graph.ApplyDelta(src, nil, nil)
	defer func() {
		if recover() == nil || !child.Equal(graph.Line(6)) {
			t.Fatal("a borrowed, retired src should have handed its header to its child")
		}
	}()
	graph.RefOf(src)
}
