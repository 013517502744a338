package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// TestNeePotentialNonIncreasingAfterAgreement validates the maximality
// proof's potential function (Props. 9–11): once the run has converged,
// the number of external edges never increases again on a fixed topology.
func TestNeePotentialNonIncreasingAfterAgreement(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s := NewStatic(Params{Cfg: core.Config{Dmax: 2}, Seed: seed}, graph.Clusters(3, 3, 0, false))
		if _, ok := metrics.RunUntilConverged(s, 2, 600, 3); !ok {
			t.Fatalf("seed %d: precondition convergence failed", seed)
		}
		prev := metrics.SnapshotOf(s).ExternalEdges()
		for r := 0; r < 40; r++ {
			s.StepRound()
			cur := metrics.SnapshotOf(s).ExternalEdges()
			if cur > prev {
				t.Fatalf("seed %d round %d: nee increased %d -> %d", seed, r, prev, cur)
			}
			prev = cur
		}
	}
}

// TestNeeDecreasesAcrossMerges: starting from singletons on a mergeable
// chain, nee must end strictly lower than it started (merges consumed
// external edges).
func TestNeeDecreasesAcrossMerges(t *testing.T) {
	s := NewStatic(Params{Cfg: core.Config{Dmax: 3}, Seed: 1}, graph.Line(8))
	start := metrics.SnapshotOf(s).ExternalEdges()
	if _, ok := metrics.RunUntilConverged(s, 3, 400, 3); !ok {
		t.Fatal("no convergence")
	}
	end := metrics.SnapshotOf(s).ExternalEdges()
	if end >= start {
		t.Fatalf("nee did not decrease: %d -> %d", start, end)
	}
}
