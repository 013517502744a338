package obs

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestColdStartAllocsPerNode holds what a cold start allocates per node:
// world, first graph, engine, tracker, first round and first observation
// of parked-commuter's configuration at n=2000, on one worker so that the
// count repeats. A population is built in bulk (DESIGN.md §2.3, cold
// start); what still scales with n is the first round's real work — every
// node's first broadcast, first commit and first neighbourhood.
func TestColdStartAllocsPerNode(t *testing.T) {
	skipUnderRace(t)
	const n = 2000
	cfg := SoakConfig{N: n, ActiveFraction: 0.02, Seed: 1, Workers: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, mob, ids := BuildSoakWorld(&cfg)
	topo := engine.NewSpatialTopology(w, mob, cfg.DT, ids, rand.New(rand.NewSource(cfg.Seed)))
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: cfg.Dmax}, Seed: cfg.Seed, Workers: cfg.Workers}, topo)
	tr := NewGroupTracker(e)
	e.StepRound()
	st := tr.Observe()
	runtime.ReadMemStats(&after)
	if st.Nodes != n || w.Workers != cfg.Workers {
		t.Fatalf("observed %d nodes on a world %d wide, want %d and %d", st.Nodes, w.Workers, n, cfg.Workers)
	}
	perNode := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("cold start: %.2f allocations a node", perNode)
	// Measured 10.4 (10.6 before New sized the first round's buffers); the
	// ceiling is 12.5, an earlier measurement of 10.9 plus 15 %.
	if ceiling := 12.5; perNode > ceiling {
		t.Errorf("cold start allocates %.2f a node, ceiling %.1f", perNode, ceiling)
	}
}

// skipUnderRace skips an allocation count under the race detector, which
// changes what allocates; CI runs these tests without it.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector changes what allocates; CI runs this step without it")
			}
		}
	}
}
