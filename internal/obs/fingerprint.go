package obs

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ident"
)

// NodeStateHash digests one node's protocol-visible state: the same
// fields, in the same rendering, as the conformance suite's per-round
// state hash — list, view, priorities and self-quarantine. Equal hashes
// across two runs are the per-node witness of a bit-identical trace.
func NodeStateHash(v ident.NodeID, n *core.Node) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%v|%s|%s|%d\n",
		v, n.List(), n.View(), n.Priority(), n.GroupPriority(), n.QuarantineOf(v))
	return h.Sum64()
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
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].ID < pairs[j].ID })
	h := fnv.New64a()
	var b [12]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(b[:], uint32(p.ID))
		binary.LittleEndian.PutUint64(b[4:], p.Hash)
		h.Write(b[:])
	}
	return h.Sum64()
}

// AppendEngineHashes appends one pair per current member of e.
func AppendEngineHashes(dst []NodeHashPair, e *engine.Engine) []NodeHashPair {
	for _, v := range e.Order() {
		dst = append(dst, NodeHashPair{ID: v, Hash: NodeStateHash(v, e.Node(v))})
	}
	return dst
}

// EngineFingerprint is the whole-run fingerprint of a single engine.
func EngineFingerprint(e *engine.Engine) uint64 {
	return FoldFingerprint(AppendEngineHashes(nil, e))
}
