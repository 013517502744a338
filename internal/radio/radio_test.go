package radio

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
)

func n(v uint32) ident.NodeID { return ident.NodeID(v) }

func TestPerfectDeliversAll(t *testing.T) {
	txs := []Tx{
		{Sender: n(1), Receivers: []ident.NodeID{2, 3}},
		{Sender: n(2), Receivers: []ident.NodeID{1}},
	}
	got := Perfect{}.AppendDeliverSlot(txs, nil, nil)
	if len(got) != 3 {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestLossyExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	txs := []Tx{{Sender: n(1), Receivers: []ident.NodeID{2, 3, 4}}}
	if got := (Lossy{P: 0}).AppendDeliverSlot(txs, rng, nil); len(got) != 3 {
		t.Fatalf("P=0 lost messages: %v", got)
	}
	if got := (Lossy{P: 1}).AppendDeliverSlot(txs, rng, nil); len(got) != 0 {
		t.Fatalf("P=1 delivered: %v", got)
	}
}

func TestLossyRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	txs := []Tx{{Sender: n(1), Receivers: []ident.NodeID{2}}}
	ch := Lossy{P: 0.3}
	delivered := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		delivered += len(ch.AppendDeliverSlot(txs, rng, nil))
	}
	rate := float64(delivered) / trials
	if rate < 0.65 || rate > 0.75 {
		t.Fatalf("delivery rate %v, want ≈0.7", rate)
	}
}

func TestCollisionTwoSendersJam(t *testing.T) {
	// 1 and 2 both reach 3: collision, 3 hears nothing. 4 hears only 1.
	txs := []Tx{
		{Sender: n(1), Receivers: []ident.NodeID{3, 4}},
		{Sender: n(2), Receivers: []ident.NodeID{3}},
	}
	got := Collision{}.AppendDeliverSlot(txs, nil, nil)
	if len(got) != 1 || got[0] != (Delivery{From: 1, To: 4}) {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestCollisionSenderCannotReceive(t *testing.T) {
	txs := []Tx{
		{Sender: n(1), Receivers: []ident.NodeID{2}},
		{Sender: n(2), Receivers: []ident.NodeID{1}},
	}
	if got := (Collision{}).AppendDeliverSlot(txs, nil, nil); len(got) != 0 {
		t.Fatalf("senders received while sending: %v", got)
	}
}

func TestCollisionSingleSenderDelivers(t *testing.T) {
	txs := []Tx{{Sender: n(1), Receivers: []ident.NodeID{2, 3}}}
	if got := (Collision{}).AppendDeliverSlot(txs, nil, nil); len(got) != 2 {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestLossyOverCollision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	txs := []Tx{
		{Sender: n(1), Receivers: []ident.NodeID{3}},
		{Sender: n(2), Receivers: []ident.NodeID{3}},
	}
	ch := Lossy{P: 0, Inner: Collision{}}
	if got := ch.AppendDeliverSlot(txs, rng, nil); len(got) != 0 {
		t.Fatalf("collision must survive composition: %v", got)
	}
}

func TestChannelsDoNotMutateInput(t *testing.T) {
	txs := []Tx{{Sender: n(1), Receivers: []ident.NodeID{2, 3}}}
	rng := rand.New(rand.NewSource(4))
	_ = Perfect{}.AppendDeliverSlot(txs, rng, nil)
	_ = (Lossy{P: 0.5}).AppendDeliverSlot(txs, rng, nil)
	_ = (Collision{}).AppendDeliverSlot(txs, rng, nil)
	if len(txs[0].Receivers) != 2 || txs[0].Receivers[0] != 2 {
		t.Fatal("input mutated")
	}
}
