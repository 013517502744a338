package wire

import (
	"bytes"
	"testing"

	"repro/internal/ident"
)

func sampleBatch() BoundaryBatch {
	return BoundaryBatch{
		Shard: 3,
		Seq:   4242,
		Entries: []BoundaryEntry{
			{Sender: 7, Gen: 7, Ver: 19, Frame: Encode(sampleMessage())},
			{Sender: 9, Gen: 2, Ver: 5}, // elided
			{Sender: 11, Gen: 11, Ver: 1<<63 | 3, Frame: Encode(sampleMessage())},
		},
	}
}

func TestBoundaryBatchRoundTrip(t *testing.T) {
	b := sampleBatch()
	buf := AppendBoundaryBatch(nil, b)
	got, err := DecodeBoundaryBatch(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != b.Shard || got.Seq != b.Seq || len(got.Entries) != len(b.Entries) {
		t.Fatalf("header diverged: %+v vs %+v", got, b)
	}
	for i, e := range b.Entries {
		g := got.Entries[i]
		if g.Sender != e.Sender || g.Gen != e.Gen || g.Ver != e.Ver || !bytes.Equal(g.Frame, e.Frame) {
			t.Fatalf("entry %d diverged: %+v vs %+v", i, g, e)
		}
		if e.Frame != nil {
			if _, err := Decode(g.Frame); err != nil {
				t.Fatalf("entry %d frame does not decode: %v", i, err)
			}
		}
	}
	// Re-encoding the decoded batch is the identity.
	if re := AppendBoundaryBatch(nil, got); !bytes.Equal(re, buf) {
		t.Fatalf("re-encode not identical:\n 1st %x\n 2nd %x", buf, re)
	}
}

func TestBoundaryBatchEmpty(t *testing.T) {
	buf := AppendBoundaryBatch(nil, BoundaryBatch{Shard: 1, Seq: 9})
	got, err := DecodeBoundaryBatch(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != 1 || got.Seq != 9 || len(got.Entries) != 0 {
		t.Fatalf("empty batch diverged: %+v", got)
	}
}

func TestBoundaryBatchRejectsTruncationEverywhere(t *testing.T) {
	buf := AppendBoundaryBatch(nil, sampleBatch())
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeBoundaryBatch(buf[:i], nil); err == nil {
			t.Fatalf("truncation at %d/%d accepted", i, len(buf))
		}
	}
}

func TestBoundaryBatchRejectsTrailingGarbage(t *testing.T) {
	buf := AppendBoundaryBatch(nil, sampleBatch())
	if _, err := DecodeBoundaryBatch(append(buf, 0), nil); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestBoundaryBatchRejectsBadMagic(t *testing.T) {
	buf := AppendBoundaryBatch(nil, sampleBatch())
	for _, i := range []int{0, 1, 2} {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0xff
		if _, err := DecodeBoundaryBatch(bad, nil); err == nil {
			t.Fatalf("corrupted header byte %d accepted", i)
		}
	}
}

// FuzzDecodeBoundaryFrame models a hostile or failing transport on the
// distributed boundary path, mirroring FuzzDecodeHostile for the GRP
// frame codec: starting from a valid boundary batch it applies
// truncation at an arbitrary byte plus a single bit flip, and requires
// the decoder to either reject or return a batch whose structure is
// self-consistent — every accepted batch must re-encode, and every
// carried frame must itself survive the GRP decoder's own validation or
// be rejected there (never a panic at either layer).
func FuzzDecodeBoundaryFrame(f *testing.F) {
	f.Add(uint16(0), uint16(0))
	f.Add(uint16(17), uint16(3))
	f.Add(uint16(1<<15), uint16(1<<15))
	base := AppendBoundaryBatch(nil, sampleBatch())
	f.Fuzz(func(t *testing.T, cut uint16, flip uint16) {
		data := append([]byte(nil), base...)
		data = data[:int(cut)%(len(data)+1)]
		if len(data) > 0 {
			bit := int(flip) % (8 * len(data))
			data[bit/8] ^= 1 << (bit % 8)
		}
		b, err := DecodeBoundaryBatch(data, nil)
		if err != nil {
			return
		}
		for _, e := range b.Entries {
			if e.Sender == ident.None && e.Frame == nil {
				continue
			}
			if e.Frame != nil {
				// The embedded frame may be corrupt; the GRP decoder must
				// reject it cleanly, and anything it accepts must satisfy
				// its own invariants (pinned by FuzzDecodeHostile).
				if m, err := Decode(e.Frame); err == nil && m.From == ident.None {
					// Tolerated: a flipped sender field can zero From; the
					// engine's deliver path drops From == None on receive.
					continue
				}
			}
		}
		re := AppendBoundaryBatch(nil, b)
		if _, err := DecodeBoundaryBatch(re, nil); err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
	})
}

// FuzzDecodeBoundaryRaw throws fully arbitrary bytes at the batch
// decoder: it must never panic, and any accepted batch must re-encode to
// a decodable batch.
func FuzzDecodeBoundaryRaw(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBoundaryBatch(nil, sampleBatch()))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBoundaryBatch(data, nil)
		if err != nil {
			return
		}
		re := AppendBoundaryBatch(nil, b)
		if _, err := DecodeBoundaryBatch(re, nil); err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
	})
}
