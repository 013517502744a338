// Package wire is the frame codec for GRP messages: the byte format a
// real radio or UDP deployment would broadcast. The paper's Airplug
// implementation exchanged text frames between processes; this codec
// plays that role for the Go runtime, and doubles as the authoritative
// definition of the protocol's control-message overhead (experiment E11
// reports EncodedSize, which this package keeps honest: encoding then
// decoding any message is the identity).
//
// Both directions stream over the message's ID-sorted records, with no map
// on either side: the sections keep the map era's shape on the wire only.
// There is one decoder, DecodeInto, which into warm storage allocates
// nothing; Decode is its nil-storage case.
//
// Frame layout (little endian):
//
//	magic  u16 = 0x4752 ("GR")
//	ver    u8  = 1
//	from   u32
//	gprio  u64 clock + u32 id
//	list   (see antlist codec)
//	nprio  u16 count, then per record: u32 id, u64 clock, u32 owner
//	gprios u16 count, same record shape
//	quars  u16 count, then per record: u32 id, u8 remaining
package wire

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/antlist"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/priority"
)

const (
	magic   = 0x4752
	version = 1
)

var (
	// ErrTruncated reports a frame shorter than its own structure.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadMagic reports a frame that is not a GRP frame.
	ErrBadMagic = errors.New("wire: bad magic or version")
)

// Encode serializes a protocol message into a fresh frame.
func Encode(m core.Message) []byte {
	return AppendEncode(nil, m)
}

// AppendEncode serializes m, appending to dst. The frame layout is
// unchanged from the map-era message representation: the flat records,
// sorted by ID, are walked once per section, each section taking an ID's
// first record that has its field — so frames interoperate across the
// representations and the E11 overhead numbers stay comparable.
func AppendEncode(dst []byte, m core.Message) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, magic)
	dst = append(dst, version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.From))
	dst = appendPrio(dst, m.GroupPrio)
	dst = m.List.AppendBinary(dst)
	for sec := 0; sec < 3; sec++ { // node priorities, group priorities, quarantines
		at, n, last := len(dst), 0, ident.None
		dst = append(dst, 0, 0)
		for i := range m.Recs {
			r := &m.Recs[i]
			if has := [...]bool{r.HasPrio, r.HasGroupPrio, r.Quar >= 0}[sec]; !has || n > 0 && r.ID == last {
				continue
			}
			last, n = r.ID, n+1
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ID))
			switch sec {
			case 0:
				dst = appendPrio(dst, r.Prio)
			case 1:
				dst = appendPrio(dst, r.GroupPrio)
			default:
				dst = append(dst, byte(min(r.Quar, 255)))
			}
		}
		binary.LittleEndian.PutUint16(dst[at:], uint16(n))
	}
	return dst
}

// Decode parses a frame into a protocol message in fresh storage:
// DecodeInto's nil-storage case.
func Decode(buf []byte) (core.Message, error) { return DecodeInto(buf, core.Message{}) }

// DecodeInto is the decoder. It writes over into's storage (its Recs, and
// its List as antlist.DecodeListInto does), which must come from the zero
// Message or an earlier DecodeInto and have no reader left, and allocates
// only what that storage lacks. The records are one per list entry, sorted
// by (ID, Pos), with the three ID-ordered sections merged onto them by a
// cursor. A hostile frame is normalised, not refused, as assignment into
// maps did it: an ID out of order is found by search, an ID repeated in a
// section keeps its last value, and an ID no list entry carries gets a
// record of its own (Pos -1).
func DecodeInto(buf []byte, into core.Message) (core.Message, error) {
	var none core.Message
	if len(buf) < 2+1+4 {
		return none, ErrTruncated
	}
	if binary.LittleEndian.Uint16(buf) != magic || buf[2] != version {
		return none, ErrBadMagic
	}
	if len(buf) < 7+12 {
		return none, ErrTruncated
	}
	m := core.Message{From: ident.NodeID(binary.LittleEndian.Uint32(buf[3:])), GroupPrio: prioAt(buf[7:])}
	var err error
	if m.List, buf, err = antlist.DecodeListInto(buf[19:], into.List); err != nil {
		return none, fmt.Errorf("wire: list: %w", err)
	}
	recs := slices.Grow(into.Recs[:0], m.List.NodeCount())
	for i := 0; i < m.List.Len(); i++ {
		for _, e := range m.List.At(i) {
			recs = append(recs, core.PrioRec{ID: e.ID, Mark: e.Mark, Pos: int16(i), Quar: -1})
		}
	}
	// One pass merges the sections onto the sorted records. An ID it does
	// not find is appended bare; those are then sorted in, once each, and a
	// second pass finds them all.
	core.SortRecs(recs)
	for {
		sorted, rest := len(recs), buf
		for sec := 0; sec < 3; sec++ { // node priorities, group priorities, quarantines
			size := [...]int{16, 16, 5}[sec]
			if len(rest) < 2 {
				return none, ErrTruncated
			}
			n := int(binary.LittleEndian.Uint16(rest))
			if rest = rest[2:]; len(rest) < n*size {
				return none, ErrTruncated
			}
			cur, last := 0, ident.None
			for ; n > 0; n, rest = n-1, rest[size:] {
				id := ident.NodeID(binary.LittleEndian.Uint32(rest))
				if id < last {
					cur, _ = slices.BinarySearchFunc(recs[:sorted], id, func(r core.PrioRec, id ident.NodeID) int {
						return cmp.Compare(r.ID, id)
					})
				}
				for cur < sorted && recs[cur].ID < id {
					cur++
				}
				if last = id; cur == sorted || recs[cur].ID != id {
					recs = append(recs, core.PrioRec{ID: id, Pos: -1, Quar: -1})
				}
				for i := cur; i < sorted && recs[i].ID == id; i++ {
					switch r := &recs[i]; sec {
					case 0:
						r.HasPrio, r.Prio = true, prioAt(rest[4:])
					case 1:
						r.HasGroupPrio, r.GroupPrio = true, prioAt(rest[4:])
					default:
						r.Quar = int16(rest[4])
					}
				}
			}
		}
		if len(rest) != 0 {
			return none, fmt.Errorf("wire: %d trailing bytes", len(rest))
		}
		if len(recs) == sorted {
			m.Recs = recs
			return m, nil
		}
		core.SortRecs(recs)
		recs = slices.CompactFunc(recs, func(a, b core.PrioRec) bool { return a.ID == b.ID && a.Pos == b.Pos })
	}
}

func appendPrio(dst []byte, p priority.P) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, p.Clock)
	return binary.LittleEndian.AppendUint32(dst, uint32(p.ID))
}

// prioAt reads the priority record at the front of buf (12 bytes).
func prioAt(buf []byte) priority.P {
	return priority.P{
		Clock: binary.LittleEndian.Uint64(buf),
		ID:    ident.NodeID(binary.LittleEndian.Uint32(buf[8:])),
	}
}
