package conformance

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/space"
)

// emptyTopology hides the population from engine.New, so that every node
// joins through AddNode instead of being built in bulk.
type emptyTopology struct{ *engine.SpatialTopology }

func (emptyTopology) Nodes() []ident.NodeID { return nil }

// soakTrace runs cfg's soak loop (obs.RunSoak's: churn, faults, round,
// observation) for rounds rounds with the SelfCheck oracle armed, over an
// engine engine.New built in bulk or one built empty and joined node by
// node. It returns the stats stream, the fingerprint, the registry's
// deterministic section and how many joiners took a recycled slot.
func soakTrace(t *testing.T, cfg obs.SoakConfig, rounds int, joined bool) (stream []byte, fp uint64, counters map[string]uint64, recycled int) {
	t.Helper()
	w, mob, ids := obs.BuildSoakWorld(&cfg)
	spatial := engine.NewSpatialTopology(w, mob, cfg.DT, ids, rand.New(rand.NewSource(cfg.Seed)))
	p := engine.Params{Cfg: core.Config{Dmax: cfg.Dmax}, Seed: cfg.Seed, Workers: cfg.Workers}
	var inj *fault.Injector
	if cfg.Fault != nil {
		p.Channel = cfg.Fault.NewChannel(nil)
	}
	var e *engine.Engine
	if joined {
		e = engine.New(p, emptyTopology{spatial})
		for _, v := range ids {
			e.AddNode(v)
		}
	} else {
		e = engine.New(p, spatial)
	}
	e.SetSelfCheck(true)
	if cfg.Fault != nil {
		positions := map[ident.NodeID]space.Point{}
		inj = fault.NewInjector(cfg.Fault, e, fault.Hooks{
			Leave: func(v ident.NodeID) {
				positions[v], _ = w.Pos(v)
				w.Remove(v)
			},
			Rejoin: func(v ident.NodeID) { w.Place(v, positions[v]) },
		})
	}
	tr := obs.NewGroupTracker(e)
	churn := rand.New(rand.NewSource(cfg.Seed ^ 0x50a4))
	next := ident.NodeID(cfg.N + 1)
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for r := 1; r <= rounds; r++ {
		if cfg.LeaveRate > 0 && churn.Float64() < cfg.LeaveRate {
			v := e.Order()[churn.Intn(len(e.Order()))]
			e.RemoveNode(v)
			w.Remove(v)
		}
		if cfg.JoinRate > 0 && churn.Float64() < cfg.JoinRate {
			w.Place(next, space.Point{X: churn.Float64() * cfg.Side, Y: churn.Float64() * cfg.Side})
			e.AddNode(next)
			if int(e.SlotOf(next)) < cfg.N {
				recycled++
			}
			next++
		}
		if inj != nil {
			inj.Apply(r)
		}
		e.StepRound()
		if err := enc.Encode(tr.Observe()); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes(), obs.EngineFingerprint(e), e.Introspect().Snapshot().Counters, recycled
}

// TestBulkBuiltEngineEqualsJoinedEngine: engine.New's bulk build (slabs,
// degree-sized cuts, reserved roster and wheels) is invisible. An engine
// built empty over the same world and populated by n AddNode calls yields
// the same stats stream, fingerprint and registry counters, at 1 and 4
// workers, on a commuter world and on churn-chaos's configuration — where
// a slot recycled after the bulk build gets a node allocated on its own
// beside neighbours that still live in the slabs.
func TestBulkBuiltEngineEqualsJoinedEngine(t *testing.T) {
	const rounds = 40 // ≥ 3·Tc, and long enough for churn to recycle a slot
	worlds := map[string]func() obs.SoakConfig{
		"commuter": func() obs.SoakConfig {
			return obs.SoakConfig{N: 150, Side: 33, ActiveFraction: 0.08, Seed: 19}
		},
		"churn-chaos": func() obs.SoakConfig {
			prof, err := fault.Preset("mixed", 1)
			if err != nil {
				t.Fatal(err)
			}
			prof.Seed = 31
			return obs.SoakConfig{N: 200, Urban: true, ActiveFraction: 0.3,
				JoinRate: 0.2, LeaveRate: 0.2, Fault: prof, Seed: 7}
		},
	}
	for name, world := range worlds {
		for _, workers := range []int{1, 4} {
			type trace struct {
				stream   []byte
				fp       uint64
				counters map[string]uint64
			}
			var got [2]trace
			for i, joined := range []bool{false, true} {
				cfg := world() // a fault profile carries its injector's clock
				cfg.Workers = workers
				var recycled int
				got[i].stream, got[i].fp, got[i].counters, recycled = soakTrace(t, cfg, rounds, joined)
				if cfg.JoinRate > 0 && recycled == 0 {
					t.Fatalf("%s: no joiner took a recycled slot — the mixed population was not exercised", name)
				}
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("%s, %d workers: bulk-built and joined engines diverged (fingerprints %016x vs %016x, streams equal: %v)",
					name, workers, got[0].fp, got[1].fp, bytes.Equal(got[0].stream, got[1].stream))
			}
		}
	}
}
