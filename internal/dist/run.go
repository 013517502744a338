package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/obs"
)

// runShard drives one shard through the whole run: the handshake, Tc
// boundary-exchange ticks per round, one sync exchange per round (shards
// report to the lead, which observes the merged state through the
// tracker), and one final exchange carrying the per-node state hashes and
// the flight recorder. Only the lead (shard 0) returns a result; it is
// field-for-field comparable with obs.RunSoak's on the same scenario — the
// stats stream, final report and fingerprint are bit-identical, while the
// Flight counters are per-shard sums (deliberately not conformance
// surface: replicated work like ticks counts once per shard).
func runShard(cfg Config, index int, tr Transport) (*obs.SoakResult, error) {
	entry := time.Now()
	sh, err := NewShard(cfg, index, tr)
	if err != nil {
		return nil, err
	}
	return sh.run(entry)
}

// run is runShard on a built shard; entry is when its set-up began. The
// round loop and the result's close are obs.Driver.Run's; a shard supplies
// its round step and its final exchange.
func (sh *Shard) run(entry time.Time) (*obs.SoakResult, error) {
	if err := sh.handshake(); err != nil {
		return nil, err
	}
	sh.E.TrackDirty()
	lead := sh.Index == 0
	d := &obs.Driver{Engine: sh.E}
	var ls *leadSource
	if lead {
		ls = newLeadSource(sh)
		d.Tracker = obs.NewGroupTrackerSource(ls)
	}
	var rs, peer roundSync
	out := make([][]byte, sh.N) // only out[0], a non-lead shard's report, is ever set

	// One round: Tc boundary-exchange ticks, then the sync exchange the
	// lead folds, own report first, into the state its tracker observes.
	d.Step = func(int, *obs.SoakResult) error {
		if err := sh.StepRound(); err != nil {
			return err
		}
		sh.collectSync(&rs)
		if !lead {
			out[0] = appendSync(out[0][:0], &rs)
		}
		in, err := sh.tr.Exchange(sh.seq, out)
		sh.seq++
		if err != nil || !lead {
			return err
		}
		ls.apply(0, &rs)
		for p := 1; p < sh.N; p++ {
			if err := decodeSync(in[p], &peer); err != nil {
				return fmt.Errorf("dist: sync from shard %d: %w", p, err)
			}
			ls.apply(p, &peer)
		}
		return nil
	}
	// Final exchange: every shard ships its node hashes and flight
	// recorder; the lead folds the fingerprint in ID order and merges the
	// registries in shard order.
	d.Close = func(res *obs.SoakResult) error {
		pairs := obs.AppendEngineHashes(nil, sh.E)
		if !lead {
			out[0] = appendFinal(out[0][:0], pairs, sh.reg)
		}
		in, err := sh.tr.Exchange(sh.seq, out)
		sh.seq++
		if err != nil || !lead {
			return err
		}
		for p := 1; p < sh.N; p++ {
			ppairs, counters, phases, err := decodeFinal(in[p])
			if err != nil {
				return fmt.Errorf("dist: final from shard %d: %w", p, err)
			}
			pairs = append(pairs, ppairs...)
			for id, v := range counters {
				sh.reg.Add(introspect.CounterID(id), v)
			}
			for ph, ns := range phases {
				sh.reg.AddPhaseNs(introspect.Phase(ph), ns)
			}
		}
		if len(pairs) != sh.Soak.N {
			return fmt.Errorf("dist: fingerprint covers %d of %d nodes", len(pairs), sh.Soak.N)
		}
		res.Fingerprint = obs.FoldFingerprint(pairs)
		return nil
	}
	return d.Run(&sh.Soak, entry)
}

// handshake is a run's first exchange: every shard tells every peer which
// shard of how many it is and a digest of the fields that define the world
// replica, and refuses to run beside a shard started from another scenario
// — which would otherwise die late, on a batch or barrier error that names
// nothing, or diverge. Workers, sinks and callbacks may differ per process
// and are left out.
func (sh *Shard) handshake() error {
	s, h := &sh.Soak, fnv.New64a()
	fmt.Fprintln(h, s.N, s.Dmax, s.Range, s.Side, s.Urban, s.DT, s.Seed, s.ActiveFraction, s.Static, s.MaxRounds, sh.N)
	hello := binary.LittleEndian.AppendUint32(nil, uint32(sh.Index))
	hello = binary.LittleEndian.AppendUint32(hello, uint32(sh.N))
	hello = binary.LittleEndian.AppendUint64(hello, h.Sum64())
	out := make([][]byte, sh.N)
	for p := range out {
		out[p] = hello
	}
	in, err := sh.tr.Exchange(sh.seq, out)
	sh.seq++
	if err != nil {
		return err
	}
	for p, b := range in {
		if p == sh.Index {
			continue
		}
		r := reader{buf: b}
		index, n, scenario := int(r.u32()), int(r.u32()), r.u64()
		if r.end("handshake") != nil || index != p || n != sh.N || scenario != h.Sum64() {
			return fmt.Errorf("dist: shard %d of %d (scenario %016x) refuses its peer %d, which is shard %d of %d (scenario %016x): the shards of a run are started from one scenario",
				sh.Index, sh.N, h.Sum64(), p, index, n, scenario)
		}
	}
	return nil
}

const finalMagic = 0x4746 // "GF"

func appendFinal(dst []byte, pairs []obs.NodeHashPair, reg *introspect.Registry) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, finalMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pairs)))
	for _, p := range pairs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.ID))
		dst = binary.LittleEndian.AppendUint64(dst, p.Hash)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(introspect.NumCounters))
	for id := introspect.CounterID(0); id < introspect.NumCounters; id++ {
		dst = binary.LittleEndian.AppendUint64(dst, reg.Get(id))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(introspect.NumPhases))
	for p := introspect.Phase(0); p < introspect.NumPhases; p++ {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(reg.PhaseNs(p)))
	}
	return dst
}

func decodeFinal(buf []byte) (pairs []obs.NodeHashPair, counters []uint64, phases []int64, err error) {
	r := reader{buf: buf}
	r.bad = r.u16() != finalMagic
	pairs = make([]obs.NodeHashPair, r.count(12))
	for i := range pairs {
		pairs[i] = obs.NodeHashPair{ID: ident.NodeID(r.u32()), Hash: r.u64()}
	}
	// Both blocks have the registry's own length, or the peer runs other code.
	counters = make([]uint64, int(introspect.NumCounters))
	r.bad = r.bad || r.count(8) != len(counters)
	for i := range counters {
		counters[i] = r.u64()
	}
	phases = make([]int64, int(introspect.NumPhases))
	r.bad = r.bad || r.count(8) != len(phases)
	for i := range phases {
		phases[i] = int64(r.u64())
	}
	if err := r.end("final report"); err != nil {
		return nil, nil, nil, err
	}
	return pairs, counters, phases, nil
}

// RunLoopback runs all shards of cfg in one process over the in-memory
// transport and returns the lead's result.
func RunLoopback(cfg Config) (*obs.SoakResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trs := NewLoopback(cfg.Shards)
	results := make([]*obs.SoakResult, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runShard(cfg, i, trs[i])
			if errs[i] != nil {
				// Release peers blocked on the barrier.
				trs[i].Close()
			}
		}(i)
	}
	wg.Wait()
	for _, tr := range trs {
		tr.Close()
	}
	// Prefer the root cause over the ErrTransportClosed it cascades into.
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrTransportClosed) {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results[0], nil
}

// RunTCP runs this process's shard over a TCP mesh (one process per
// shard, index-aligned listen addresses). The lead process (index 0)
// returns the merged result; peers return (nil, nil) on success.
func RunTCP(cfg Config, index int, addrs []string) (*obs.SoakResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(addrs) != cfg.Shards {
		return nil, fmt.Errorf("dist: %d addrs for %d shards", len(addrs), cfg.Shards)
	}
	tr, err := DialTCP(index, addrs)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	return runShard(cfg, index, tr)
}
