package radio_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/space"
)

// TestLossyDrawsWorkerIndependent pins the determinism contract in
// Lossy's doc comment: channel arbitration runs sequentially on the
// coordinator over the engine's single global RNG stream, so the loss
// draws — and therefore the delivered set, the drop counter, and every
// node's state — are bit-identical at any Params.Workers setting.
func TestLossyDrawsWorkerIndependent(t *testing.T) {
	run := func(workers int) []string {
		w := space.NewWorld(3)
		ids := make([]ident.NodeID, 36)
		for i := range ids {
			ids[i] = ident.NodeID(i + 1)
		}
		topo := engine.NewSpatialTopology(w,
			&mobility.Waypoint{Side: 14, SpeedMin: 0.5, SpeedMax: 2, Pause: 1},
			0.2, ids, rand.New(rand.NewSource(4)))
		var drops uint64
		e := engine.New(engine.Params{
			Cfg:     core.Config{Dmax: 3},
			Channel: radio.Lossy{P: 0.3, Drops: &drops},
			Seed:    6,
			Workers: workers,
		}, topo)
		out := make([]string, 0, 80)
		for r := 1; r <= 80; r++ {
			e.StepRound()
			reg := e.Introspect()
			s := fmt.Sprintf("r%d msgs%d deliv%d drops%d", r,
				reg.Get(introspect.CtrMessagesSent), reg.Get(introspect.CtrDeliveries), drops)
			for _, v := range e.Order() {
				s += fmt.Sprintf("|%d:%v", v, e.Node(v).View())
			}
			out = append(out, s)
		}
		if drops == 0 {
			t.Fatal("Lossy{P:0.3} dropped nothing in 80 rounds — the test is vacuous")
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("workers=%d: round %d diverges:\n seq: %s\n par: %s",
					workers, r+1, want[r], got[r])
			}
		}
	}
}
