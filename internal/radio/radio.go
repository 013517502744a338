// Package radio models the wireless channel between the vicinity relation
// and the protocol: which of a slot's broadcasts are actually received.
//
// The paper's system model (§2, close to IEEE 802.11) is: one-message
// channels, and a node v receives u's message only if v is not itself
// sending and no other node in v's vicinity is sending at the same time.
// The Collision channel implements exactly that; Perfect and Lossy bracket
// it from both sides for sensitivity studies (experiment E9).
package radio

import (
	"math/rand"

	"repro/internal/ident"
)

// Tx is one broadcast in a slot: the sender and the nodes its signal
// reaches (the vicinity, as computed by the space layer).
type Tx struct {
	Sender    ident.NodeID
	Receivers []ident.NodeID
}

// Delivery is a successful reception.
type Delivery struct {
	From, To ident.NodeID
}

// Channel decides which receptions succeed among a slot's broadcasts.
type Channel interface {
	// AppendDeliverSlot appends the successful deliveries of a slot to buf,
	// so a driver recycles one delivery buffer across ticks. txs lists all
	// simultaneous broadcasts; implementations must not mutate it.
	AppendDeliverSlot(txs []Tx, rng *rand.Rand, buf []Delivery) []Delivery
}

// DropCounter is implemented by channels that count the deliveries they
// suppress, so observers (internal/obs) can surface radio-layer loss
// next to the violation predicates instead of losing it silently. The
// count is cumulative over the channel's lifetime and includes any
// counting inner channel's drops.
type DropCounter interface {
	DroppedDeliveries() uint64
}

// Perfect delivers every reachable (sender, receiver) pair: no loss, no
// collisions. The fair-channel hypothesis holds trivially.
type Perfect struct{}

// AppendDeliverSlot implements Channel.
func (Perfect) AppendDeliverSlot(txs []Tx, _ *rand.Rand, buf []Delivery) []Delivery {
	for _, tx := range txs {
		for _, r := range tx.Receivers {
			buf = append(buf, Delivery{From: tx.Sender, To: r})
		}
	}
	return buf
}

// Lossy drops each reception independently with probability P.
//
// Determinism: channel arbitration is phase 3 of the engine's Step — it
// runs sequentially on the coordinator, on the engine's single global RNG
// stream, over the slot's transmissions in canonical shard-major order.
// Lossy draws exactly one rng.Float64() per reachable (sender, receiver)
// pair, in that order, so the draw sequence is a pure function of the
// seed and the slot's traffic: it is bit-identical at any Params.Workers
// setting and any GOMAXPROCS (TestLossyDrawsWorkerIndependent pins this —
// the conformance goldens and every chaos episode record ride on it).
type Lossy struct {
	P float64

	// Drops, when non-nil, is incremented once per suppressed delivery —
	// the drop counter chaos observers surface through the obs sink (the
	// channel itself stays a copyable stateless value).
	Drops *uint64
}

// DroppedDeliveries implements DropCounter: Lossy's suppressions, when
// counting is armed.
func (l Lossy) DroppedDeliveries() uint64 {
	if l.Drops == nil {
		return 0
	}
	return *l.Drops
}

// AppendDeliverSlot implements Channel. Perfect's deliveries land in
// buf's tail and are filtered in place.
func (l Lossy) AppendDeliverSlot(txs []Tx, rng *rand.Rand, buf []Delivery) []Delivery {
	start := len(buf)
	buf = Perfect{}.AppendDeliverSlot(txs, rng, buf)
	kept := buf[:start]
	for _, d := range buf[start:] {
		if rng.Float64() >= l.P {
			kept = append(kept, d)
		} else if l.Drops != nil {
			*l.Drops++
		}
	}
	return kept
}

// Collision implements the paper's interference model: a node receives
// nothing in a slot when it is itself sending, and nothing when two or
// more senders reach it simultaneously (the one-message channel is
// destroyed by the collision).
type Collision struct{}

// AppendDeliverSlot implements Channel. Its interference maps are per call,
// sized by the slate, not by the ID range a table would span.
func (Collision) AppendDeliverSlot(txs []Tx, _ *rand.Rand, buf []Delivery) []Delivery {
	sending := make(map[ident.NodeID]bool, len(txs))
	heard := make(map[ident.NodeID]int)
	for _, tx := range txs {
		sending[tx.Sender] = true
		for _, r := range tx.Receivers {
			heard[r]++
		}
	}
	for _, tx := range txs {
		for _, r := range tx.Receivers {
			if sending[r] || heard[r] > 1 {
				continue
			}
			buf = append(buf, Delivery{From: tx.Sender, To: r})
		}
	}
	return buf
}
