// Boundary batch codec: the framing internal/dist ships between shard
// processes once per tick. One batch carries every boundary-relevant
// broadcast of the sending shard as delta entries — a full GRP frame
// (the standard codec above) when the sender's state version moved since
// the peer last saw it, or a bare version header when it did not, in
// which case the peer replays its cached ghost replica. The receiver
// re-derives the receiver sets from its own replica of the world, so
// entries never carry receiver lists: boundary traffic scales with the
// number of state-changed border senders, not with the population.
//
// Batch layout (little endian):
//
//	magic   u16 = 0x4742 ("GB")
//	ver     u8  = 1
//	shard   u16          sending shard index
//	seq     u64          tick sequence number (lockstep check)
//	count   u32          entry count
//	entries repeated:
//	  sender u32
//	  gen    u64         sender incarnation (engine membership generation)
//	  sver   u64         sender state version the broadcast was built at
//	  flag   u8          0: elided (replay the ghost), 1: frame follows
//	  [flen  u32, frame] only when flag = 1: a standard GRP frame
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/ident"
)

const (
	boundaryMagic   = 0x4742
	boundaryVersion = 1
)

// BoundaryEntry is one sender's slot in a boundary batch. A nil Frame
// means the entry was elided: the sender's broadcast is unchanged since
// the peer's ghost replica was last refreshed at (Gen, Ver).
type BoundaryEntry struct {
	Sender ident.NodeID
	Gen    uint64
	Ver    uint64
	Frame  []byte // encoded GRP frame, nil when elided
}

// BoundaryBatch is one shard's per-tick boundary shipment to one peer.
type BoundaryBatch struct {
	Shard   int
	Seq     uint64
	Entries []BoundaryEntry
}

// AppendBoundaryBatch serializes the batch, appending to dst.
func AppendBoundaryBatch(dst []byte, b BoundaryBatch) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, boundaryMagic)
	dst = append(dst, boundaryVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(b.Shard))
	dst = binary.LittleEndian.AppendUint64(dst, b.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Entries)))
	for _, e := range b.Entries {
		dst = appendBoundaryEntry(dst, e)
	}
	return dst
}

// appendBoundaryEntry serializes one entry (see the batch layout).
func appendBoundaryEntry(dst []byte, e BoundaryEntry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Sender))
	dst = binary.LittleEndian.AppendUint64(dst, e.Gen)
	dst = binary.LittleEndian.AppendUint64(dst, e.Ver)
	if e.Frame == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Frame)))
	return append(dst, e.Frame...)
}

// DecodeBoundaryBatch parses a boundary batch, its entries written over
// entries' storage (nil: fresh; grown if short). Entry frames alias buf (no
// copy); callers that retain a frame past buf's lifetime must copy it. The
// embedded GRP frames are not decoded here — the consumer decodes only the
// frames it needs (wire.DecodeInto validates them).
func DecodeBoundaryBatch(buf []byte, entries []BoundaryEntry) (BoundaryBatch, error) {
	r := Reader{buf: buf}
	mag, ver := r.U16(), r.U8()
	b := BoundaryBatch{Shard: int(r.U16()), Seq: r.U64()}
	if !r.bad && (mag != boundaryMagic || ver != boundaryVersion) {
		return b, ErrBadMagic
	}
	n := r.Count32(21) // an elided entry, the shortest
	b.Entries = slices.Grow(entries[:0], n)
	for ; n > 0; n-- {
		e := BoundaryEntry{Sender: ident.NodeID(r.U32()), Gen: r.U64(), Ver: r.U64()}
		switch flag := r.U8(); flag {
		case 0:
		case 1:
			e.Frame = r.take(r.Count32(1))
		default:
			return b, fmt.Errorf("wire: boundary entry flag %d", flag)
		}
		b.Entries = append(b.Entries, e)
	}
	return b, r.End()
}
