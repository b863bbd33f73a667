package aescipher

// Hardware-model hooks for the TIE custom-instruction semantics and the
// assembly kernel generator (internal/kernels).

// SBox returns the forward S-box entry for b.
func SBox(b byte) byte { return sbox[b] }

// InvSBox returns the inverse S-box entry for b.
func InvSBox(b byte) byte { return invSbox[b] }

// SBoxTable returns a copy of the forward S-box.
func SBoxTable() [256]byte { return sbox }

// InvSBoxTable returns a copy of the inverse S-box.
func InvSBoxTable() [256]byte { return invSbox }

// SubWord applies the S-box to the four bytes of w.
func SubWord(w uint32) uint32 { return subWord(w) }

// MixColumn applies the MixColumns matrix to one column held as a
// big-endian word (byte 0 of the column in the most significant byte).
func MixColumn(col uint32) uint32 { return mixColumn(col) }

// InvMixColumn applies the inverse MixColumns matrix to one column.
func InvMixColumn(col uint32) uint32 { return invMixColumn(col) }

// GFMul exposes GF(2⁸) multiplication for the assembly generator's
// reference tests.
func GFMul(a, b byte) byte { return gfMul(a, b) }

// RoundKeys returns the expanded key schedule as rounds+1 groups of four
// big-endian column words.
func (c *Cipher) RoundKeys() [][4]uint32 {
	out := make([][4]uint32, c.rounds+1)
	copy(out, c.enc[:])
	return out
}

// Rounds returns the number of rounds (10, 12 or 14).
func (c *Cipher) Rounds() int { return c.rounds }
