package wire

import (
	"bytes"
	"reflect"
	"testing"

	"pigpaxos/internal/ids"
)

// FuzzDecode drives arbitrary bytes through both decoders. Invariants:
//
//   - neither Decode nor DecodeInto ever panics on corrupt input;
//   - both decoders agree on message, consumed length, and error-ness;
//   - any successfully decoded message re-encodes to a canonical form
//     that round-trips byte-identically (decode∘encode is a fixed point).
//
// Raw fuzz input may be non-canonical (e.g. a bool byte of 2 decodes as
// true but re-encodes as 1), so byte-identity is asserted on the
// re-encoded form, not the raw input.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMsgs() {
		f.Add(Encode(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{byte(TP2a), 1, 2})
	// Huge declared counts against a tiny buffer must be rejected by the
	// min-size bounds checks, not attempted.
	f.Add([]byte{byte(TP1b), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0xff, 0xff})
	for _, enc := range goldenEncodings(f) {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Decode(data)
		m2, n2, err2 := DecodeInto(new(Scratch), data)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("Decode err=%v but DecodeInto err=%v", err, err2)
		}
		if err != nil {
			return
		}
		if n != n2 {
			t.Fatalf("Decode consumed %d, DecodeInto consumed %d", n, n2)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decoder mismatch:\n Decode     %+v\n DecodeInto %+v", m, m2)
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Canonical re-encode must round-trip byte-identically.
		enc := Encode(nil, m)
		if len(enc) != m.Size()+1 {
			t.Fatalf("Size()=%d but encoded length %d", m.Size(), len(enc)-1)
		}
		m3, n3, err3 := Decode(enc)
		if err3 != nil {
			t.Fatalf("re-decode failed: %v", err3)
		}
		if n3 != len(enc) || !reflect.DeepEqual(m3, m) {
			t.Fatalf("re-decode mismatch:\n got  %+v\n want %+v", m3, m)
		}
		if enc2 := Encode(nil, m3); !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding not a fixed point:\n %x\n %x", enc, enc2)
		}
	})
}

// FuzzDecodeStream checks that a corrupted multi-message stream never
// panics and that consumed lengths stay in bounds while decoding as far
// as the corruption allows.
func FuzzDecodeStream(f *testing.F) {
	var seed []byte
	seed = Encode(seed, P2b{Ballot: 7, From: ids.NewID(1, 1), Slot: 9})
	seed = Encode(seed, Heartbeat{Ballot: 7, From: ids.NewID(1, 2), Commit: 4})
	f.Add(seed, uint8(3), uint8(0x80))
	f.Fuzz(func(t *testing.T, data []byte, pos, bit uint8) {
		if len(data) > 0 {
			data[int(pos)%len(data)] ^= bit // inject corruption
		}
		for len(data) > 0 {
			_, n, err := Decode(data)
			if err != nil {
				return
			}
			if n <= 0 || n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			data = data[n:]
		}
	})
}
