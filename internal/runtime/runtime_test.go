package runtime

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
)

func fastCfg(dmax int) Config {
	return Config{
		Protocol:     core.Config{Dmax: dmax},
		SendEvery:    2 * time.Millisecond,
		ComputeEvery: 5 * time.Millisecond,
	}
}

func TestLiveLineConverges(t *testing.T) {
	c, err := New(fastCfg(4), graph.Line(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []ident.NodeID{1, 2, 3, 4, 5}
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		good := true
		for v := ident.NodeID(1); v <= 5; v++ {
			if !reflect.DeepEqual(c.View(v), want) {
				good = false
				break
			}
		}
		if good {
			if !c.AwaitStableViews(2*time.Second, 3) {
				t.Fatalf("views converged but did not stay stable: %v", c.Views())
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no convergence: %v", c.Views())
}

func TestLiveLinkCutSplits(t *testing.T) {
	g := graph.Line(4)
	c, err := New(fastCfg(3), g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.AwaitStableViews(5*time.Second, 5) {
		t.Fatalf("no initial stability: %v", c.Views())
	}
	g.RemoveEdge(2, 3)
	c.SetGraph(g)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		v2, v3 := c.View(2), c.View(3)
		if reflect.DeepEqual(v2, []ident.NodeID{1, 2}) && reflect.DeepEqual(v3, []ident.NodeID{3, 4}) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("views did not split: %v", c.Views())
}

func TestLiveNodeJoin(t *testing.T) {
	g := graph.Line(3)
	c, err := New(fastCfg(3), g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.AwaitStableViews(5*time.Second, 5) {
		t.Fatal("no initial stability")
	}
	g.AddEdge(3, 4)
	c.SetGraph(g)
	deadline := time.Now().Add(5 * time.Second)
	want := []ident.NodeID{1, 2, 3, 4}
	for time.Now().Before(deadline) {
		if reflect.DeepEqual(c.View(1), want) && reflect.DeepEqual(c.View(4), want) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("joiner not admitted: %v", c.Views())
}

func TestLiveRemoveNode(t *testing.T) {
	c, err := New(fastCfg(2), graph.Line(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.AwaitStableViews(5*time.Second, 5) {
		t.Fatal("no initial stability")
	}
	c.Remove(3)
	if c.View(3) != nil {
		t.Fatal("removed node still answers")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reflect.DeepEqual(c.View(2), []ident.NodeID{1, 2}) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("departure not detected: %v", c.Views())
}

// TestDroppedMessagesCounted forces inbox overflow — a dense clique,
// one-slot inboxes, aggressive send timers — and checks the router's
// drop counter surfaces the loss instead of discarding it silently.
func TestDroppedMessagesCounted(t *testing.T) {
	g := graph.New()
	const n = 8
	for u := ident.NodeID(1); u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			g.AddEdge(u, v)
		}
	}
	c, err := New(Config{
		Protocol:     core.Config{Dmax: 3},
		SendEvery:    200 * time.Microsecond,
		ComputeEvery: 400 * time.Microsecond,
		Buffer:       1,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.DroppedDeliveries() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("one-slot inboxes on a clique never overflowed — drop counter dead")
}

func TestConfigValidation(t *testing.T) {
	_, err := New(Config{Protocol: core.Config{Dmax: 2}, SendEvery: 10 * time.Millisecond, ComputeEvery: 5 * time.Millisecond}, graph.Line(2))
	if err == nil {
		t.Fatal("expected Tc < Ts to be rejected")
	}
}

func TestCloseIsIdempotentForQueries(t *testing.T) {
	c, err := New(fastCfg(2), graph.Line(2))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if v := c.View(1); v != nil {
		t.Fatalf("view after close = %v", v)
	}
}
