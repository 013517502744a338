package wire

import (
	"testing"

	"repro/internal/antlist"
)

// FuzzDecode throws arbitrary bytes at the frame decoder: it must never
// panic, and decoding is a normalization — re-encoding an accepted frame
// and decoding again must be a fixpoint (the decoder defensively sorts
// and deduplicates hostile input, so byte-level identity only holds for
// canonical frames; see TestRoundTrip for that case). Every accepted
// message must also encode exactly as the map-era oracle encodes it, and
// the decoder must agree with the map-era decoder on every input, into
// any storage (checkDecodeOracle).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(sampleMessage()))
	buf := Encode(sampleMessage())
	f.Add(buf[:len(buf)/2])
	for _, nf := range nonCanonicalFrames() {
		f.Add(nf.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := checkDecodeOracle(t, data)
		if err != nil {
			return
		}
		checkOracle(t, m)
		re := Encode(m)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if string(Encode(m2)) != string(re) {
			t.Fatalf("normalization not idempotent:\n 1st %x\n 2nd %x", re, Encode(m2))
		}
	})
}

// FuzzDecodeHostile models an in-band attacker: it starts from a valid
// frame and applies the two corruptions a hostile or failing radio
// produces — truncation at an arbitrary byte and a single bit flip — and
// requires the decoder to either return an error or produce a message
// whose antlist still satisfies every structural invariant (sorted,
// deduplicated sets; re-encode/decode fixpoint). Never a panic, never a
// malformed arena handed to the protocol core.
func FuzzDecodeHostile(f *testing.F) {
	f.Add(uint16(0), uint16(0))
	f.Add(uint16(4), uint16(17))
	f.Add(uint16(1<<15), uint16(1<<15))
	base := Encode(sampleMessage())
	f.Fuzz(func(t *testing.T, cut uint16, flip uint16) {
		data := append([]byte(nil), base...)
		data = data[:int(cut)%(len(data)+1)]
		if len(data) > 0 {
			bit := int(flip) % (8 * len(data))
			data[bit/8] ^= 1 << (bit % 8)
		}
		m, err := checkDecodeOracle(t, data)
		if err != nil {
			return
		}
		for p := 0; p < m.List.Len(); p++ {
			s := m.List.At(p)
			for i := 1; i < len(s); i++ {
				if s[i].ID <= s[i-1].ID {
					t.Fatalf("corrupted frame decoded to unsorted set: %v", s)
				}
			}
		}
		checkOracle(t, m)
		re := Encode(m)
		if _, err := Decode(re); err != nil {
			t.Fatalf("accepted corrupted frame does not re-encode: %v", err)
		}
	})
}

// FuzzDecodeList drives the antlist codec with raw bytes: no panics, and
// accepted lists must satisfy the Set ordering invariant.
func FuzzDecodeList(f *testing.F) {
	f.Add(antlist.FromSets(antlist.NewSet()).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _, err := antlist.DecodeListInto(data, antlist.List{})
		if err != nil {
			return
		}
		for p := 0; p < got.Len(); p++ {
			s := got.At(p)
			for i := 1; i < len(s); i++ {
				if s[i].ID <= s[i-1].ID {
					t.Fatalf("unsorted set decoded: %v", s)
				}
			}
		}
	})
}
