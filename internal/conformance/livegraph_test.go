package conformance

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/space"
)

// heldSource serves the tracker what it read before it borrowed the
// topology's live graph: an identity-Restrict sibling a round, which makes the
// next delta copy its row header.
type heldSource struct {
	obs.Source
	e *engine.Engine
}

func (s heldSource) LiveGraph() *graph.G { return s.e.SnapshotGraph() }

// TestBorrowedGraphMatchesHeldSnapshot: whether the tracker borrows the
// live graph (every delta tick hands its row header on) or holds a sibling
// (the first tick of every round copies it) is invisible — per-round
// state and broadcast hashes (what the fingerprint folds), Ω statistics
// and traffic on the churning, commuter and chaos scenarios, the chaos
// run's whole counter block, at 1 and 4 workers.
func TestBorrowedGraphMatchesHeldSnapshot(t *testing.T) {
	defer func() { newTracker = obs.NewGroupTracker }()
	for _, workers := range []int{1, 4} {
		type result struct {
			churn, commuter, chaos []roundRec
			counters               map[string]uint64
		}
		runAll := func() (r result) {
			r.churn = run(t, workers, 60, false)
			r.commuter = commuterRun(workers, false)
			r.chaos, r.counters = chaosRun(t, workers, 80, false)
			return r
		}
		newTracker = obs.NewGroupTracker
		borrowed := runAll()
		newTracker = func(e *engine.Engine) *obs.GroupTracker {
			return obs.NewGroupTrackerSource(heldSource{obs.EngineSource(e), e})
		}
		if held := runAll(); !reflect.DeepEqual(borrowed, held) {
			t.Fatalf("%d workers: a tracker on the borrowed graph and one on held snapshots diverged", workers)
		}
	}
}

// TestHeldSnapshotSurvivesDeltaTicks is the held-snapshot contract on a
// mobile world: a metrics.SnapshotOf(e) taken at round r over a delta-path
// SpatialTopology — which retires every graph it replaces, so the lineage
// patches one row header in place — still equals a reference copy
// (graph.RefOf) taken at r two rounds (2·Tc ticks) later, with and without a leave and a join at the
// round boundary right after it was taken.
func TestHeldSnapshotSurvivesDeltaTicks(t *testing.T) {
	for _, churn := range []bool{false, true} {
		e := commuterScenario(4, false)
		w := e.Topo.(*engine.SpatialTopology).World
		tr := obs.NewGroupTracker(e)
		type held struct {
			snap *graph.G
			ref  *graph.Ref
		}
		var window []held
		next := ident.NodeID(500)
		for r := 0; r < 30; r++ {
			e.StepRound()
			tr.Observe()
			window = append(window, held{metrics.SnapshotOf(e).G, graph.RefOf(e.Topo.Graph())})
			if churn && r%3 == 1 {
				v := e.Order()[r]
				e.RemoveNode(v)
				w.Remove(v)
				w.Place(next, space.Point{X: float64(r), Y: 33 - float64(r)})
				e.AddNode(next)
				next++
			}
			if len(window) > 2 {
				if h := window[0]; !h.ref.SameAs(h.snap) {
					t.Fatalf("churn %v: the snapshot of round %d changed within two rounds", churn, r-1)
				}
				window = window[1:]
			}
		}
		if d := e.Introspect().Get(introspect.CtrGraphDeltaRounds); d < 30 {
			t.Fatalf("churn %v: only %d delta ticks — the contract was not exercised", churn, d)
		}
	}
}

// allRowsSource drains the changed-row record and answers that every row
// may have changed, which forces the tracker's phase 2 over every member.
type allRowsSource struct{ obs.Source }

func (s allRowsSource) DrainRows() ([]ident.NodeID, bool) {
	s.Source.DrainRows()
	return nil, true
}

// fedSource counts the drains its source answered from the record.
type fedSource struct {
	obs.Source
	drains, fed *int
}

func (s fedSource) DrainRows() ([]ident.NodeID, bool) {
	ids, all := s.Source.DrainRows()
	*s.drains++
	if !all {
		*s.fed++
	}
	return ids, all
}

// TestRecordFedTrackerMatchesFullSweep is the differential guard of the
// changed-row record: a tracker that re-reads only the rows the world
// recorded as changed (graph.ApplyDelta's list on a delta rebuild, the
// scan's compare on a full one) and a tracker that re-reads every row agree
// on every round — Ω statistics, ΠT, ΠC, nee, edges, protocol state — on
// the churning walled, commuter and chaos scenarios, at 1 and 4 workers.
// Every drain of the record-fed runs must come from the record.
func TestRecordFedTrackerMatchesFullSweep(t *testing.T) {
	defer func() { newTracker = obs.NewGroupTracker }()
	for _, workers := range []int{1, 4} {
		runAll := func() [][]roundRec {
			chaos, _ := chaosRun(t, workers, 80, false)
			return [][]roundRec{run(t, workers, 60, false), commuterRun(workers, false), chaos}
		}
		var drains, fed int
		newTracker = func(e *engine.Engine) *obs.GroupTracker {
			return obs.NewGroupTrackerSource(fedSource{obs.EngineSource(e), &drains, &fed})
		}
		recorded := runAll()
		if fed != drains {
			t.Fatalf("%d workers: %d of %d drains answered all rows", workers, drains-fed, drains)
		}
		newTracker = func(e *engine.Engine) *obs.GroupTracker {
			return obs.NewGroupTrackerSource(allRowsSource{obs.EngineSource(e)})
		}
		full := runAll()
		for i, name := range []string{"churn", "commuter", "chaos"} {
			for r := range full[i] {
				if !reflect.DeepEqual(recorded[i][r], full[i][r]) {
					t.Fatalf("%d workers, %s round %d: record-fed %+v, full sweep %+v",
						workers, name, r+1, recorded[i][r].Stats, full[i][r].Stats)
				}
			}
		}
	}
}
