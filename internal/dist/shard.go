package dist

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/space"
	"repro/internal/wire"
)

// Config describes one distributed soak run. Every shard process must be
// constructed from an identical Config — the world replication depends
// on it (same seed ⟹ same placement, same mobility stream, same graphs).
type Config struct {
	// Soak is the scenario, shared verbatim with the single-process
	// driver so a 1-vs-N comparison runs the identical world.
	Soak obs.SoakConfig
	// Shards is the number of slab owners (1..64, so a peer set fits a
	// bit mask).
	Shards int
}

// Validate rejects configurations the deterministic split cannot carry:
// the boundary protocol replays broadcasts from replicas, so anything
// that would consume the engines' RNG streams asymmetrically or change
// membership mid-run is out of scope for the distributed wrapper — and so
// are the sink-adjacent extras obs.RunSoak serves in-process, which no
// shard would honor: asking for them fails here instead of silently
// writing nothing.
func (c *Config) Validate() error {
	if c.Shards < 1 || c.Shards > 64 {
		return fmt.Errorf("dist: %d shards outside [1,64]", c.Shards)
	}
	if c.Soak.JoinRate != 0 || c.Soak.LeaveRate != 0 {
		return fmt.Errorf("dist: membership churn is not distributed")
	}
	if c.Soak.Fault != nil {
		return fmt.Errorf("dist: fault injection is not distributed")
	}
	if c.Soak.Channel != nil {
		return fmt.Errorf("dist: only the Perfect channel is distributed (arbitration must not consume the RNG)")
	}
	if c.Soak.Duration != 0 {
		return fmt.Errorf("dist: wall-clock caps would desynchronize the shard barrier")
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"FlightEvery", c.Soak.FlightEvery != 0},
		{"WakeTrace", c.Soak.WakeTrace != nil},
		{"IntrospectAddr", c.Soak.IntrospectAddr != ""},
		{"Episodes", c.Soak.Episodes != nil},
	} {
		if f.set {
			return fmt.Errorf("dist: SoakConfig.%s is not distributed", f.name)
		}
	}
	return nil
}

// ownedTopology restricts an engine's membership to the owned slab
// while every graph query still answers from the full replicated world
// — exactly what makes an owned sender's receiver row (and therefore
// its boundary fan-out) identical to the single-process engine's.
type ownedTopology struct {
	*engine.SpatialTopology
	owned []ident.NodeID
}

func (t *ownedTopology) Nodes() []ident.NodeID { return t.owned }

// noOwner is the owner of an ID that is no node's; shard indices stay below 64.
const noOwner = 0xff

// genVer is a per-peer elision key: the (incarnation, state version)
// signature of the last frame shipped for a sender.
type genVer struct{ gen, ver uint64 }

// ghost is the cached replica of a foreign boundary sender's broadcast.
// An elided entry replays it; a framed entry refreshes it, through
// engine.PublishForeign: msg is a message of the engine's pools, like a
// local broadcast, and every receiver it is delivered to points at it.
type ghost struct {
	gen, ver uint64
	msg      *core.Message
}

// rowMask caches the peer mask derived from a receiver row, valid while
// the graph serves a Same row (the engine's receiver cache uses the same
// proof: the same window within one row era ⟹ unchanged content).
type rowMask struct {
	row  graph.Row
	mask uint64
}

// Shard is one slab owner: a full world replica plus an engine over the
// owned population, speaking the ghost-boundary protocol with its peers.
type Shard struct {
	Index int
	N     int

	E     *engine.Engine
	World *space.World
	Topo  *engine.SpatialTopology
	Part  Partition
	Owned []ident.NodeID

	owners []uint8 // by node ID (noOwner: not a node): populations are the dense 1..N (no churn)

	tr  Transport
	seq uint64
	reg *introspect.Registry

	// Sender side: per peer p, this tick's entries and their encoding; the
	// frames they carry lie in arena.
	arena    []byte
	batches  [][]wire.BoundaryEntry
	out      [][]byte
	lastSent []ident.Table[genVer] // per peer: the sender's last shipped frame
	masks    []rowMask

	// Receiver side. dec is the storage every frame is decoded in before
	// its ghost publishes it.
	ghosts []*ghost // by node ID, like owners
	ext    []engine.ExternalDelivery
	dec    core.Message

	entries []wire.BoundaryEntry // of the batch being ingested

	// Soak is the normalized scenario (NewShard's copy).
	Soak obs.SoakConfig
	// lastViewVer gates the per-round view sync to the lead (slot-indexed
	// on this shard's engine; see collectSync).
	lastViewVer []uint64
}

// NewShard replicates the scenario world and attaches shard index to
// the transport. cfg must be Validate-clean and identical across peers.
func NewShard(cfg Config, index int, tr Transport) (*Shard, error) {
	return newShard(cfg, index, tr, false)
}

// newShard is NewShard with its test seam: jitter desynchronises the
// compute timers (engine.Params.Jitter), without which every receiver of a
// broadcast computes before its sender can replace it.
func newShard(cfg Config, index int, tr Transport, jitter bool) (*Shard, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if index < 0 || index >= cfg.Shards {
		return nil, fmt.Errorf("dist: shard index %d outside %d shards", index, cfg.Shards)
	}
	soak := cfg.Soak
	w, mob, ids := obs.BuildSoakWorld(&soak)
	topo := engine.NewSpatialTopology(w, mob, soak.DT, ids, rand.New(rand.NewSource(soak.Seed)))

	xs := make([]float64, len(ids))
	for i, v := range ids {
		p, ok := w.Pos(v)
		if !ok {
			return nil, fmt.Errorf("dist: node %d not placed by mobility init", v)
		}
		xs[i] = p.X
	}
	part := MakePartition(xs, cfg.Shards)
	owners := slices.Repeat([]uint8{noOwner}, int(slices.Max(ids))+1)
	var owned []ident.NodeID
	for i, v := range ids {
		o := uint8(part.Owner(xs[i]))
		owners[v] = o
		if int(o) == index {
			owned = append(owned, v)
		}
	}

	e := engine.New(engine.Params{
		Cfg:     core.Config{Dmax: soak.Dmax},
		Seed:    soak.Seed,
		Workers: soak.Workers,
		Jitter:  jitter,
	}, &ownedTopology{SpatialTopology: topo, owned: owned})

	sh := &Shard{
		Index:    index,
		N:        cfg.Shards,
		E:        e,
		World:    w,
		Topo:     topo,
		Part:     part,
		Owned:    owned,
		owners:   owners,
		tr:       tr,
		reg:      e.Introspect(),
		batches:  make([][]wire.BoundaryEntry, cfg.Shards),
		out:      make([][]byte, cfg.Shards),
		lastSent: make([]ident.Table[genVer], cfg.Shards),
		masks:    make([]rowMask, e.Roster().SlotCap()),
		ghosts:   make([]*ghost, len(owners)),
		Soak:     soak,
	}
	// Every fresh node starts at view version 1 ({self}); the lead mirror
	// is seeded with the same, so nothing needs syncing until a view
	// actually moves.
	sh.lastViewVer = make([]uint64, e.Roster().SlotCap())
	for _, v := range owned {
		sh.lastViewVer[e.SlotOf(v)] = 1
	}
	return sh, nil
}

// Tick runs one engine tick with the boundary exchange between the
// build and deliver phases: build locally, ship the owned boundary
// broadcasts, ingest the peers', then finish the tick with the foreign
// receptions injected. The Exchange is the per-tick barrier.
func (sh *Shard) Tick() error {
	sh.E.AdvancePhase()
	txs := sh.E.BuildPhase()
	sh.routeBoundary(txs)
	in, err := sh.tr.Exchange(sh.seq, sh.out)
	if err != nil {
		return err
	}
	ext, err := sh.ingest(in)
	if err != nil {
		return err
	}
	sh.E.FinishTick(ext)
	sh.seq++
	return nil
}

// StepRound runs Tc ticks (one protocol round).
func (sh *Shard) StepRound() error {
	for i := 0; i < sh.E.P.Tc; i++ {
		if err := sh.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// foreignMask returns the peers owning at least one receiver of v's
// broadcast — v's row of the replicated graph, as in the single-process
// deliver phase — cached per sender slot against the row.
func (sh *Shard) foreignMask(v ident.NodeID) uint64 {
	row := sh.Topo.Graph().Row(v)
	if slot := sh.E.SlotOf(v); slot >= 0 && int(slot) < len(sh.masks) {
		rm := &sh.masks[slot]
		if !rm.row.Same(row) {
			rm.row, rm.mask = row, sh.maskOf(row.IDs())
		}
		return rm.mask
	}
	return sh.maskOf(row.IDs())
}

func (sh *Shard) maskOf(row []ident.NodeID) uint64 {
	var mask uint64
	for _, u := range row {
		if o := sh.owners[u]; int(o) != sh.Index {
			mask |= 1 << o
		}
	}
	return mask
}

// routeBoundary builds the per-peer boundary batches for this tick's
// broadcasts. A sender appears in a peer's batch exactly when the peer
// owns one of its receivers; the frame is included only when the
// sender's (gen, ver) moved since the last frame shipped to that peer —
// otherwise the entry is elided and the peer replays its ghost — and is
// encoded, once, only when some peer is to get it.
func (sh *Shard) routeBoundary(txs []radio.Tx) {
	sh.arena = sh.arena[:0]
	var bytesOut, frames, elided uint64
	for _, tx := range txs {
		mask := sh.foreignMask(tx.Sender)
		if mask == 0 {
			continue
		}
		msg, gen, ver, ok := sh.E.BroadcastOf(tx.Sender)
		if !ok {
			continue
		}
		var frame []byte
		for sig := (genVer{gen, ver}); mask != 0; mask &= mask - 1 {
			p := bits.TrailingZeros64(mask)
			ent := wire.BoundaryEntry{Sender: tx.Sender, Gen: gen, Ver: ver}
			if last, _ := sh.lastSent[p].Get(tx.Sender); last == sig {
				elided++
			} else {
				if sh.lastSent[p].Set(tx.Sender, sig); frame == nil {
					// A grown arena leaves earlier frames where they were.
					at := len(sh.arena)
					sh.arena = wire.AppendEncode(sh.arena, *msg)
					frame = sh.arena[at:len(sh.arena):len(sh.arena)]
				}
				ent.Frame = frame
				frames++
			}
			sh.batches[p] = append(sh.batches[p], ent)
		}
	}
	for p, ents := range sh.batches {
		// An empty batch is an empty payload: peers skip decoding and
		// interior-only ticks cost no header bytes.
		sh.out[p], sh.batches[p] = sh.out[p][:0], ents[:0]
		if len(ents) > 0 {
			sh.out[p] = wire.AppendBoundaryBatch(sh.out[p], wire.BoundaryBatch{Shard: sh.Index, Seq: sh.seq, Entries: ents})
		}
		bytesOut += uint64(len(sh.out[p]))
	}
	sh.reg.Add(introspect.CtrBoundaryBytesSent, bytesOut)
	sh.reg.Add(introspect.CtrBoundaryFrames, frames)
	sh.reg.Add(introspect.CtrBoundaryFramesElided, elided)
}

// ingest decodes the peers' batches in fixed shard order and expands
// them into external deliveries: for each entry the receiver set is
// re-derived from the local world replica and intersected with the
// owned slab. Delivery order across senders is irrelevant to the engine
// (the inbox is per-sender last-write-wins and the compute fold sorts
// senders), but the fixed order keeps the trace canonical regardless.
func (sh *Shard) ingest(in [][]byte) ([]engine.ExternalDelivery, error) {
	sh.ext = sh.ext[:0]
	var bytesIn, ghostUpd uint64
	for p := 0; p < sh.N; p++ {
		if p == sh.Index || len(in[p]) == 0 {
			continue
		}
		bytesIn += uint64(len(in[p]))
		b, err := wire.DecodeBoundaryBatch(in[p], sh.entries)
		if err != nil {
			return nil, fmt.Errorf("dist: shard %d: batch from %d: %w", sh.Index, p, err)
		}
		sh.entries = b.Entries
		if b.Shard != p || b.Seq != sh.seq {
			return nil, fmt.Errorf("dist: shard %d: batch header (%d, %d) from peer %d at seq %d",
				sh.Index, b.Shard, b.Seq, p, sh.seq)
		}
		for _, ent := range b.Entries {
			// A sender the peer does not own is a malformed or desynchronised
			// batch, not an index.
			if int(ent.Sender) >= len(sh.owners) || int(sh.owners[ent.Sender]) != p {
				return nil, fmt.Errorf("dist: shard %d: peer %d sent an entry for node %d, which it does not own, at seq %d",
					sh.Index, p, ent.Sender, sh.seq)
			}
			g := sh.ghosts[ent.Sender]
			if ent.Frame != nil {
				m, err := wire.DecodeInto(ent.Frame, sh.dec)
				if err != nil {
					return nil, fmt.Errorf("dist: shard %d: frame for %d from %d: %w", sh.Index, ent.Sender, p, err)
				}
				sh.dec = m
				if g == nil {
					g = &ghost{}
					sh.ghosts[ent.Sender] = g
				}
				g.gen, g.ver = ent.Gen, ent.Ver
				g.msg = sh.E.PublishForeign(ent.Sender, g.msg, m)
				ghostUpd++
			} else if g == nil || g.gen != ent.Gen || g.ver != ent.Ver {
				return nil, fmt.Errorf("dist: shard %d: elided entry for %d from %d without a matching ghost",
					sh.Index, ent.Sender, p)
			}
			for _, u := range sh.Topo.Graph().NeighborsView(ent.Sender) {
				if int(sh.owners[u]) == sh.Index {
					sh.ext = append(sh.ext, engine.ExternalDelivery{
						To: u, From: ent.Sender, Gen: ent.Gen, Ver: ent.Ver, Msg: g.msg,
					})
				}
			}
		}
	}
	sh.reg.Add(introspect.CtrBoundaryBytesRecv, bytesIn)
	sh.reg.Add(introspect.CtrGhostUpdates, ghostUpd)
	sh.reg.Add(introspect.CtrExtDeliveries, uint64(len(sh.ext)))
	return sh.ext, nil
}
