package cert

import "testing"

// FuzzCertificateReplay corrupts serialized certificates and asserts
// the decoder/verifier pipeline never accepts an unsound mutant: every
// raw mutation must fail the checksum, and mutants with a fixed-up
// checksum must decode cleanly or be rejected by Verify — with a
// truth-table cross-check on any accepted propositional certificate.
// The fuzzer chooses a seed certificate, a position, and an xor mask;
// arbitrary extra bytes exercise the decoder's bounds checks directly.
func FuzzCertificateReplay(f *testing.F) {
	var encoded [][]byte
	for _, c := range []*Certificate{
		certResolution(), certCongruence(), certFM(),
		certIntMerge(), certTrueFalse(),
	} {
		c.Key = "fuzz-seed"
		encoded = append(encoded, Encode(c))
	}
	f.Add(uint16(0), uint16(7), byte(0xFF), []byte{})
	f.Add(uint16(1), uint16(12), byte(0x01), []byte{})
	f.Add(uint16(2), uint16(20), byte(0x80), []byte("QCRT1"))
	f.Add(uint16(3), uint16(3), byte(0x40), []byte{0xde, 0xad})
	f.Fuzz(func(t *testing.T, seed, pos uint16, xor byte, raw []byte) {
		data := append([]byte(nil), encoded[int(seed)%len(encoded)]...)
		p := int(pos) % len(data)
		if xor == 0 {
			xor = 0xFF
		}
		data[p] ^= xor
		if _, err := Decode(data); err == nil {
			t.Fatalf("seed %d pos %d xor %#x: corrupted encoding passed the checksum", seed, p, xor)
		}
		checkMutant(t, fixChecksum(data))

		// Arbitrary bytes through the decoder: must never panic, and
		// anything that decodes and verifies is held to the same
		// propositional oracle.
		checkMutant(t, raw)
	})
}
