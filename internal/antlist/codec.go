package antlist

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/ident"
)

// Wire format (little endian):
//
//	u16 number of positions
//	per position: u16 number of entries, then per entry u32 id, u8 mark
//
// The codec exists so the overhead experiments (E11) measure realistic
// message sizes rather than in-memory struct sizes, and so the goroutine
// runtime can exchange byte frames like a real radio would. The frame
// layout is unchanged from the nested representation; the encoder walks
// the flat arena once, and the decoder assembles the arena directly.

var errTruncated = errors.New("antlist: truncated frame")

// AppendBinary appends the wire encoding of the list to dst.
func (l List) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(l.Len()))
	for i := 1; i < len(l.offs); i++ {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(l.offs[i]-l.offs[i-1]))
		for _, e := range l.ents[l.offs[i-1]:l.offs[i]] {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e.ID))
			dst = append(dst, byte(e.Mark))
		}
	}
	return dst
}

// EncodedSize returns the wire size in bytes without encoding — O(1) on
// the flat form.
func (l List) EncodedSize() int {
	return 2 + 2*l.Len() + 5*len(l.ents)
}

// DecodeListInto decodes a list from the front of buf, returning the list
// and the remaining bytes. It writes over into's storage — into must be the
// zero List (fresh storage) or one an earlier DecodeListInto returned, which
// nothing reads any more (never a published list: those share their
// offsets) — and allocates only what that storage lacks. Each position is re-sorted and
// deduplicated defensively (strongest mark wins, matching Set.Add) so a
// hostile frame cannot violate Set invariants; on an error into's storage is
// scribbled and the zero List returned.
func DecodeListInto(buf []byte, into List) (List, []byte, error) {
	if len(buf) < 2 {
		return List{}, buf, errTruncated
	}
	np := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if np > 1<<12 {
		return List{}, buf, fmt.Errorf("antlist: implausible position count %d", np)
	}
	// One pass over the position headers sizes the storage (and is where a
	// truncated frame is refused), a second fills it.
	total := 0
	for p, rest := 0, buf; p < np; p++ {
		if len(rest) < 2 {
			return List{}, rest, errTruncated
		}
		ne := int(binary.LittleEndian.Uint16(rest))
		if rest = rest[2:]; len(rest) < 5*ne {
			return List{}, rest, errTruncated
		}
		rest, total = rest[5*ne:], total+ne
	}
	out := List{ents: slices.Grow(into.ents[:0], total), offs: append(slices.Grow(into.offs[:0], np+1), 0)}
	for p := 0; p < np; p++ {
		ne := int(binary.LittleEndian.Uint16(buf))
		buf = buf[2:]
		start := len(out.ents)
		for e := 0; e < ne; e++ {
			mark := ident.Mark(buf[4])
			if mark > ident.MarkDouble {
				return List{}, buf, fmt.Errorf("antlist: bad mark %d", mark)
			}
			out.ents = insertEntry(out.ents, start, ident.Entry{ID: ident.NodeID(binary.LittleEndian.Uint32(buf)), Mark: mark})
			buf = buf[5:]
		}
		out.offs = append(out.offs, int32(len(out.ents)))
	}
	return out, buf, nil
}

// insertEntry inserts e into the position subrange ents[start:], keeping
// it ascending by ID; a duplicate ID keeps the strongest mark (the Set.Add
// semantics the nested decoder applied entry by entry). A canonical frame
// is ascending already, so every entry of it is the append below.
func insertEntry(ents []ident.Entry, start int, e ident.Entry) []ident.Entry {
	if len(ents) == start || ents[len(ents)-1].ID < e.ID {
		return append(ents, e)
	}
	i, dup := slices.BinarySearchFunc(ents[start:], e.ID, func(x ident.Entry, id ident.NodeID) int {
		return cmp.Compare(x.ID, id)
	})
	if i += start; dup {
		ents[i].Mark = ents[i].Mark.Max(e.Mark)
		return ents
	}
	ents = append(ents, ident.Entry{})
	copy(ents[i+1:], ents[i:])
	ents[i] = e
	return ents
}
