// Package wire is the frame codec for GRP messages: the byte format a
// real radio or UDP deployment would broadcast. The paper's Airplug
// implementation exchanged text frames between processes; this codec
// plays that role for the Go runtime. Encoding then decoding any message
// is the identity. A frame is exactly core.Message.EncodedSize, the figure
// E11 and bytes_sent count, plus 9 header bytes and a 4-byte ID key per
// node- or group-priority record; this package's tests pin the relation.
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
	// ErrTruncated reports a frame shorter than its own structure, or
	// with a count it cannot back: what a bad Reader's End returns.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadMagic reports a frame whose magic or version is not its
	// layout's.
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
// Message or an earlier DecodeInto and no longer be in use, and allocates
// only what that storage lacks. The records are one per list entry, sorted
// by (ID, Pos), with the three ID-ordered sections merged onto them by a
// cursor. A hostile frame is normalised, not refused, as assignment into
// maps did it: an ID out of order is found by search, an ID repeated in a
// section keeps its last value, and an ID no list entry carries gets a
// record of its own (Pos -1).
func DecodeInto(buf []byte, into core.Message) (core.Message, error) {
	var none core.Message
	r := Reader{buf: buf}
	mag, ver, from := r.U16(), r.U8(), ident.NodeID(r.U32())
	if !r.bad && (mag != magic || ver != version) {
		return none, ErrBadMagic
	}
	m := core.Message{From: from, GroupPrio: priority.Of(r.U64(), ident.NodeID(r.U32()))}
	if r.bad {
		return none, ErrTruncated
	}
	var err error
	if m.List, r.buf, err = antlist.DecodeListInto(r.buf, into.List); err != nil {
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
	// second pass reads the sections again and finds them all.
	core.SortRecs(recs)
	for {
		sorted, s := len(recs), r
		for sec := 0; sec < 3; sec++ { // node priorities, group priorities, quarantines
			cur, last := 0, ident.None
			for n := s.Count16([...]int{16, 16, 5}[sec]); n > 0; n-- {
				id, p, q := ident.NodeID(s.U32()), priority.P{}, int16(0)
				if sec < 2 {
					p = priority.Of(s.U64(), ident.NodeID(s.U32()))
				} else {
					q = int16(s.U8())
				}
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
						r.HasPrio, r.Prio = true, p
					case 1:
						r.HasGroupPrio, r.GroupPrio = true, p
					default:
						r.Quar = q
					}
				}
			}
		}
		if err := s.End(); err != nil {
			return none, err
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
	dst = binary.LittleEndian.AppendUint64(dst, p.Clock())
	return binary.LittleEndian.AppendUint32(dst, uint32(p.ID))
}

// Reader walks a little-endian frame a peer sent; every decoder of peer
// bytes, here and in internal/dist, reads through one. Its three rules:
// a read past the end marks the reader bad for good and yields zeros; a
// count the rest of the frame cannot back, at its element size, marks it
// bad and yields 0, so nothing is ever sized by a length the frame does
// not hold; and End refuses a bad reader or a byte left over. A decoder
// reads on regardless and checks once, at End.
type Reader struct {
	buf []byte
	bad bool
}

// NewReader returns a reader at the front of buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

var zeros [8]byte // what a bad read reads; never written

// take reads the next n bytes, aliasing the frame; nil past the end.
func (r *Reader) take(n int) []byte {
	if n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// fail marks the reader bad for good: with no byte left, every later read
// overruns too.
func (r *Reader) fail() { r.buf, r.bad = nil, true }

// fixed reads n <= 8 bytes, zeros past the end.
func (r *Reader) fixed(n int) []byte {
	if n > len(r.buf) {
		r.fail()
		return zeros[:n]
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// U8, U16, U32 and U64 read an integer of their width.
func (r *Reader) U8() uint8   { return r.fixed(1)[0] }
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// Count16 and Count32 read an element count of their width, refusing one
// that the rest of the frame, at size bytes an element, cannot hold.
func (r *Reader) Count16(size int) int { return r.count(uint64(r.U16()), size) }
func (r *Reader) Count32(size int) int { return r.count(uint64(r.U32()), size) }

func (r *Reader) count(n uint64, size int) int {
	if n > uint64(len(r.buf)/size) {
		r.fail()
		return 0
	}
	return int(n)
}

// End is a decoder's one check: every read was backed (else ErrTruncated)
// and no byte is left over.
func (r *Reader) End() error {
	switch {
	case r.bad:
		return ErrTruncated
	case len(r.buf) != 0:
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf))
	}
	return nil
}
