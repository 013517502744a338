// Channel adversities: stateful radio.Channel wrappers that model the
// messy loss regimes the paper's fair-channel hypothesis abstracts away —
// time-correlated burst loss, per-link asymmetric loss, and frame
// duplication — layered over any inner channel (radio.Collision included).
//
// Determinism: channel arbitration is phase 3 of the engine's Step and
// runs sequentially on the coordinator, on the single global RNG stream,
// over the slot's transmissions in canonical order (see radio.Lossy's
// determinism note). Every wrapper here draws a fixed, content-determined
// number of variates per slot — one Gilbert–Elliott transition draw plus
// one draw per inner delivery — so a seed reproduces the same loss
// pattern bit for bit at any worker count. The wrappers are pointer
// types, unlike the stateless radio values: the burst chain state and the
// drop counters live across slots.
package fault

import (
	"math/rand"

	"repro/internal/ident"
	"repro/internal/radio"
)

// innerDeliver appends the inner channel's deliveries (Perfect when nil)
// to buf and returns the extended slice.
func innerDeliver(inner radio.Channel, txs []radio.Tx, rng *rand.Rand, buf []radio.Delivery) []radio.Delivery {
	if inner == nil {
		inner = radio.Perfect{}
	}
	return inner.AppendDeliverSlot(txs, rng, buf)
}

// innerDrops reads the inner channel's drop counter when it has one.
func innerDrops(inner radio.Channel) uint64 {
	if dc, ok := inner.(radio.DropCounter); ok {
		return dc.DroppedDeliveries()
	}
	return 0
}

// gated routes each slot through the adversity stack while the
// injector's round clock is within the profile's Until horizon, and
// through the clean inner channel afterwards — so Until bounds the
// *entire* fault schedule, ambient channel adversity included, and the
// quiet tail a driver leaves after it is genuinely quiet. The off path
// draws no adversity variates; that is deterministic too, because the
// gate flips on the coordinator's round counter, identically at any
// worker count.
type gated struct {
	adverse radio.Channel
	plain   radio.Channel // the original inner (Perfect when nil)
	until   *int          // &Profile.Until (0 = never stand down)
	clock   *int          // current round, advanced by Injector.Apply
}

func (g *gated) active() bool { return *g.until == 0 || *g.clock <= *g.until }

// AppendDeliverSlot implements radio.Channel.
func (g *gated) AppendDeliverSlot(txs []radio.Tx, rng *rand.Rand, buf []radio.Delivery) []radio.Delivery {
	if g.active() {
		return g.adverse.AppendDeliverSlot(txs, rng, buf)
	}
	return innerDeliver(g.plain, txs, rng, buf)
}

// DroppedDeliveries implements radio.DropCounter (the adversity stack's
// count includes any counting inner channel's).
func (g *gated) DroppedDeliveries() uint64 { return innerDrops(g.adverse) }

// BurstLoss is a two-state Gilbert–Elliott loss channel: a hidden
// good/bad state advances one Markov step per slot, and each delivery is
// dropped with the state's loss probability — loss arrives in bursts
// (interference, a passing truck) instead of radio.Lossy's memoryless
// coin flips.
type BurstLoss struct {
	LossGood, LossBad  float64 // per-delivery drop probability in each state
	PGoodBad, PBadGood float64 // per-slot state transition probabilities
	Inner              radio.Channel

	bad   bool
	drops uint64
}

// AppendDeliverSlot implements radio.Channel. One transition draw
// per slot, then one drop draw per inner delivery, in order.
func (b *BurstLoss) AppendDeliverSlot(txs []radio.Tx, rng *rand.Rand, buf []radio.Delivery) []radio.Delivery {
	x := rng.Float64()
	if b.bad {
		if x < b.PBadGood {
			b.bad = false
		}
	} else if x < b.PGoodBad {
		b.bad = true
	}
	p := b.LossGood
	if b.bad {
		p = b.LossBad
	}
	start := len(buf)
	buf = innerDeliver(b.Inner, txs, rng, buf)
	kept := buf[:start]
	for _, d := range buf[start:] {
		if rng.Float64() >= p {
			kept = append(kept, d)
		} else {
			b.drops++
		}
	}
	return kept
}

// Bad reports the current chain state (for tests).
func (b *BurstLoss) Bad() bool { return b.bad }

// DroppedDeliveries implements radio.DropCounter.
func (b *BurstLoss) DroppedDeliveries() uint64 { return b.drops + innerDrops(b.Inner) }

// AsymLoss drops each delivery with a per-link probability derived by
// hashing (Seed, from, to): every directed link gets its own fixed loss
// rate in [0, MaxP], so the u→v direction of a link can be far worse than
// v→u — the asymmetric-link regime where one side of a handshake keeps
// failing. It draws one variate per delivery regardless of the link, so
// the RNG stream stays aligned with the content-independent channels.
type AsymLoss struct {
	MaxP  float64
	Seed  uint64
	Inner radio.Channel

	drops uint64
}

// linkP returns the directed link's fixed loss probability.
func (a *AsymLoss) linkP(from, to ident.NodeID) float64 {
	h := uint64(14695981039346656037)
	for _, x := range [...]uint64{a.Seed, uint64(from), uint64(to)} {
		h = (h ^ x) * 1099511628211
	}
	// 53 random bits → uniform in [0,1).
	return a.MaxP * float64(h>>11) / (1 << 53)
}

// AppendDeliverSlot implements radio.Channel.
func (a *AsymLoss) AppendDeliverSlot(txs []radio.Tx, rng *rand.Rand, buf []radio.Delivery) []radio.Delivery {
	start := len(buf)
	buf = innerDeliver(a.Inner, txs, rng, buf)
	kept := buf[:start]
	for _, d := range buf[start:] {
		if rng.Float64() >= a.linkP(d.From, d.To) {
			kept = append(kept, d)
		} else {
			a.drops++
		}
	}
	return kept
}

// DroppedDeliveries implements radio.DropCounter.
func (a *AsymLoss) DroppedDeliveries() uint64 { return a.drops + innerDrops(a.Inner) }

// Dup duplicates each delivery with probability P — the frame-duplication
// adversity (a retransmitting MAC, a reflection). Duplicates are appended
// after the slot's genuine deliveries, so the receiver hears the frame
// twice within one slot; the protocol's one-message channel semantics
// (last message per sender wins) must absorb it.
type Dup struct {
	P     float64
	Inner radio.Channel

	dups uint64
}

// AppendDeliverSlot implements radio.Channel.
func (d *Dup) AppendDeliverSlot(txs []radio.Tx, rng *rand.Rand, buf []radio.Delivery) []radio.Delivery {
	start := len(buf)
	buf = innerDeliver(d.Inner, txs, rng, buf)
	// Expand in place: collect the duplicated indices first so the draw
	// order is one variate per inner delivery, then splice.
	n := len(buf)
	for i := start; i < n; i++ {
		if rng.Float64() < d.P {
			d.dups++
			buf = append(buf, buf[i])
		}
	}
	return buf
}

// Duplicated returns the cumulative number of injected duplicates.
func (d *Dup) Duplicated() uint64 { return d.dups }

// DroppedDeliveries implements radio.DropCounter (Dup itself never
// drops; it forwards the inner channel's count).
func (d *Dup) DroppedDeliveries() uint64 { return innerDrops(d.Inner) }
