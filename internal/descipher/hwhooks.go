package descipher

import "math/bits"

// Hardware-model hooks: the TIE custom-instruction semantics in
// internal/kernels model DES datapath hardware (IP/FP wiring, the combined
// E ⊕ K → S-boxes → P round function) and reuse this package's reference
// logic so the "hardware" and the software library can never diverge.

// IP applies the initial permutation to a 64-bit block.
func IP(block uint64) uint64 { return ip(block) }

// FP applies the final permutation (IP⁻¹) to a 64-bit block.
func FP(block uint64) uint64 { return fp(block) }

// Feistel exposes the round function f(R, K) on a 48-bit FIPS subkey for
// the hardware model, by the same steps as the loop in Cipher.rounds.
func Feistel(r uint32, subkey uint64) uint32 {
	r = bits.RotateLeft32(r, 1)
	k := packSubkey(subkey)
	return bits.RotateLeft32(sp4(r^uint32(k>>32), 1)^sp4(bits.RotateLeft32(r, -4)^uint32(k), 0), -1)
}

// Subkeys returns the 16 expanded 48-bit round subkeys.
func (c *Cipher) Subkeys() [16]uint64 {
	var out [16]uint64
	for i, p := range c.ks {
		out[i] = unpackSubkey(p)
	}
	return out
}

// Ciphers returns the three single-DES stages of a triple cipher, in EDE
// application order.
func (t *TripleCipher) Ciphers() (c1, c2, c3 *Cipher) { return &t.c1, &t.c2, &t.c3 }

// SPBox returns the combined S-then-P contribution of S-box `box` for a
// 6-bit input: P(S_box(v) << 4*(7-box)).  Optimized software DES uses these
// eight 64-entry tables to fuse substitution and permutation.
func SPBox(box int, v byte) uint32 { return bits.RotateLeft32(spBox[box][v&0x3F], -1) }

// RoundKeyChunks splits a 48-bit subkey into eight 6-bit chunks, one per
// S-box, in S1..S8 order (each chunk's bit 5 is the S-box's b1).
func RoundKeyChunks(subkey uint64) [8]byte {
	var out [8]byte
	for i := 0; i < 8; i++ {
		out[i] = byte(subkey >> uint(42-6*i) & 0x3F)
	}
	return out
}

// ERotations returns, for each S-box i, the rotate-right amount s such that
// (R >>> s) & 0x3F equals the 6 E-expansion bits feeding that S-box.  This
// is the identity that lets software compute E with a rotate instead of a
// bit-gather: box i consumes DES bits 4i-4 .. 4i+1 of R (1-based circular).
func ERotations() [8]uint {
	var out [8]uint
	for i := 0; i < 8; i++ {
		j0 := 4 * i // first DES bit of the group, 0 ≡ bit 32
		out[i] = uint((27 - j0 + 32) % 32)
	}
	return out
}
