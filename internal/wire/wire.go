// Package wire is the frame codec for GRP messages: the byte format a
// real radio or UDP deployment would broadcast. The paper's Airplug
// implementation exchanged text frames between processes; this codec
// plays that role for the Go runtime, and doubles as the authoritative
// definition of the protocol's control-message overhead (experiment E11
// reports EncodedSize, which this package keeps honest: encoding then
// decoding any message is the identity).
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
	"encoding/binary"
	"errors"
	"fmt"

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

// Decode parses a frame back into a protocol message, rebuilding the
// flat record slice (with each entry's list position) from the frame's
// map-shaped sections.
func Decode(buf []byte) (core.Message, error) {
	var m core.Message
	if len(buf) < 2+1+4 {
		return m, ErrTruncated
	}
	if binary.LittleEndian.Uint16(buf) != magic || buf[2] != version {
		return m, ErrBadMagic
	}
	m.From = ident.NodeID(binary.LittleEndian.Uint32(buf[3:]))
	buf = buf[7:]
	var err error
	if m.GroupPrio, buf, err = readPrio(buf); err != nil {
		return m, err
	}
	if m.List, buf, err = antlist.DecodeList(buf); err != nil {
		return m, fmt.Errorf("wire: list: %w", err)
	}
	var prios, gprios map[ident.NodeID]priority.P
	if prios, buf, err = readPrioMap(buf); err != nil {
		return m, err
	}
	if gprios, buf, err = readPrioMap(buf); err != nil {
		return m, err
	}
	if len(buf) < 2 {
		return m, ErrTruncated
	}
	nq := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < nq*5 {
		return m, ErrTruncated
	}
	quars := make(map[ident.NodeID]int, nq)
	for i := 0; i < nq; i++ {
		id := ident.NodeID(binary.LittleEndian.Uint32(buf))
		quars[id] = int(buf[4])
		buf = buf[5:]
	}
	if len(buf) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes", len(buf))
	}
	m.Recs = core.RecsFromMaps(m.List, prios, gprios, quars)
	return m, nil
}

func appendPrio(dst []byte, p priority.P) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, p.Clock)
	return binary.LittleEndian.AppendUint32(dst, uint32(p.ID))
}

func readPrio(buf []byte) (priority.P, []byte, error) {
	if len(buf) < 12 {
		return priority.P{}, buf, ErrTruncated
	}
	p := priority.P{
		Clock: binary.LittleEndian.Uint64(buf),
		ID:    ident.NodeID(binary.LittleEndian.Uint32(buf[8:])),
	}
	return p, buf[12:], nil
}

func readPrioMap(buf []byte) (map[ident.NodeID]priority.P, []byte, error) {
	if len(buf) < 2 {
		return nil, buf, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n*16 {
		return nil, buf, ErrTruncated
	}
	out := make(map[ident.NodeID]priority.P, n)
	for i := 0; i < n; i++ {
		id := ident.NodeID(binary.LittleEndian.Uint32(buf))
		p, rest, err := readPrio(buf[4:])
		if err != nil {
			return nil, buf, err
		}
		out[id] = p
		buf = rest
	}
	return out, buf, nil
}
