package obs

import (
	"cmp"
	"encoding/binary"
	"slices"

	"repro/internal/engine"
	"repro/internal/ident"
)

// FNV-1a, 64 bit, written out: the fingerprint runs once per node at the
// end of a run — inside the timed window of a sharded run's last round —
// and must not allocate per node.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// NodeHashPair carries one node's state hash to the fingerprint fold.
type NodeHashPair struct {
	ID   ident.NodeID
	Hash uint64
}

// FoldFingerprint folds per-node hashes into one run fingerprint, in
// ascending ID order (pairs are sorted in place) — so the fold is
// independent of which process contributed which node, which is what
// lets a distributed run (internal/dist) assemble the identical
// fingerprint from per-shard fragments.
func FoldFingerprint(pairs []NodeHashPair) uint64 {
	slices.SortFunc(pairs, func(a, b NodeHashPair) int { return cmp.Compare(a.ID, b.ID) })
	h := uint64(fnvOffset64)
	var b [12]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(b[:], uint32(p.ID))
		binary.LittleEndian.PutUint64(b[4:], p.Hash)
		h = fnv1a(h, b[:])
	}
	return h
}

// AppendEngineHashes appends one pair per current member of e: the digest
// of the node's protocol-visible state as core.Node.AppendState renders it
// — the same fields, in the same rendering, as the conformance suite's
// per-round state hash. Equal hashes across two runs are the per-node
// witness of a bit-identical trace.
func AppendEngineHashes(dst []NodeHashPair, e *engine.Engine) []NodeHashPair {
	order := e.Order()
	dst = slices.Grow(dst, len(order))
	var line []byte
	for _, v := range order {
		line = e.Node(v).AppendState(line[:0])
		dst = append(dst, NodeHashPair{ID: v, Hash: fnv1a(fnvOffset64, line)})
	}
	return dst
}

// EngineFingerprint is the whole-run fingerprint of a single engine.
func EngineFingerprint(e *engine.Engine) uint64 {
	return FoldFingerprint(AppendEngineHashes(nil, e))
}
