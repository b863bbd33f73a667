// Package aescipher implements the Advanced Encryption Standard (FIPS 197)
// from scratch for 128-, 192- and 256-bit keys.
//
// The S-box is derived at initialization from GF(2⁸) inversion and the
// affine transform rather than transcribed.  The round functions are in
// the optimized-software form of an embedded library: the state is four
// big-endian column words, SubBytes and ShiftRows are one pass of S-box
// table lookups, and MixColumns and its inverse work on whole columns with
// a masked xtime.  No branch depends on the key or the data, and there are
// no T-tables.  The xt32 assembly twin (internal/kernels) keeps the
// paper's baseline form, with a bit-serial GF(2⁸) multiply routine, since
// it is the object of the paper's AES custom-instruction study (17.4× in
// Table 1).
package aescipher

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// maxRounds is the round count of AES-256.
const maxRounds = 14

var (
	sbox    [256]byte
	invSbox [256]byte
)

// xtime multiplies by x in GF(2⁸): a shift, then the reduction by
// x⁸+x⁴+x³+x+1 selected by a mask of the carried-out bit, not a branch.
func xtime(a byte) byte { return a<<1 ^ 0x1B&-(a>>7) }

// xtime4 applies xtime to each byte of a column word.
func xtime4(w uint32) uint32 { return (w&0x7F7F7F7F)<<1 ^ (w>>7&0x01010101)*0x1B }

// gfMul multiplies in GF(2⁸) by shift-and-add over the bits of b.  Each
// step selects with a mask, so the time does not depend on a or b.
func gfMul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		p ^= a & -(b & 1)
		a = xtime(a)
		b >>= 1
	}
	return p
}

// gfInv computes the multiplicative inverse in GF(2⁸) (0 maps to 0) by
// exponentiation to 254.
func gfInv(a byte) byte {
	if a == 0 {
		return 0
	}
	// a^254 = a^(2+4+8+16+32+64+128)
	result := byte(1)
	sq := a
	for _, bit := range []bool{false, true, true, true, true, true, true, true} {
		if bit {
			result = gfMul(result, sq)
		}
		sq = gfMul(sq, sq)
	}
	return result
}

func init() {
	for i := 0; i < 256; i++ {
		inv := gfInv(byte(i))
		// Affine transform: b ^ rot(b,4) ^ rot(b,5) ^ rot(b,6) ^ rot(b,7) ^ 0x63.
		b := inv
		s := b
		for r := 1; r <= 4; r++ {
			b = b<<1 | b>>7
			s ^= b
		}
		s ^= 0x63
		sbox[i] = s
	}
	for i := 0; i < 256; i++ {
		invSbox[sbox[i]] = byte(i)
	}
}

// mixColumn applies the MixColumns matrix to one column word (row 0 in the
// most significant byte): b_r = 2·a_r ⊕ 3·a_{r+1} ⊕ a_{r+2} ⊕ a_{r+3},
// written as 2·(a_r ⊕ a_{r+1}) ⊕ a_{r+1} ⊕ a_{r+2} ⊕ a_{r+3}.  Rotating the
// word left by 8k bits lines a_{r+k} up with a_r.
func mixColumn(w uint32) uint32 {
	w1 := bits.RotateLeft32(w, 8)
	return xtime4(w^w1) ^ w1 ^ bits.RotateLeft32(w, 16) ^ bits.RotateLeft32(w, 24)
}

// invMixColumn applies the inverse matrix, factored as MixColumns after
// the circulant (5 0 4 0): first a_r ⊕= 4·(a_r ⊕ a_{r+2}).
func invMixColumn(w uint32) uint32 {
	return mixColumn(w ^ xtime4(xtime4(w^bits.RotateLeft32(w, 16))))
}

// subRows builds one column of SubBytes∘ShiftRows: row r of the result is
// the S-box image of row r of w_r.  With w0..w3 all the same word it is
// SubWord.
func subRows(box *[256]byte, w0, w1, w2, w3 uint32) uint32 {
	return uint32(box[byte(w0>>24)])<<24 | uint32(box[byte(w1>>16)])<<16 |
		uint32(box[byte(w2>>8)])<<8 | uint32(box[byte(w3)])
}

func subWord(w uint32) uint32 { return subRows(&sbox, w, w, w, w) }

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

// Cipher is an AES block cipher with an expanded key schedule.
type Cipher struct {
	rounds int                      // 10, 12 or 14
	enc    [maxRounds + 1][4]uint32 // round keys as columns; rounds+1 used
}

// NewCipher expands a 16-, 24- or 32-byte key.
func NewCipher(key []byte) (*Cipher, error) {
	var rounds int
	switch len(key) {
	case 16:
		rounds = 10
	case 24:
		rounds = 12
	case 32:
		rounds = 14
	default:
		return nil, fmt.Errorf("aescipher: key must be 16, 24 or 32 bytes, got %d", len(key))
	}
	c := &Cipher{rounds: rounds}
	c.expandKey(key)
	return c, nil
}

// BlockSize returns the cipher block size (16).
func (c *Cipher) BlockSize() int { return BlockSize }

func (c *Cipher) expandKey(key []byte) {
	nk := len(key) / 4
	total := 4 * (c.rounds + 1)
	var w [4 * (maxRounds + 1)]uint32
	for i := 0; i < nk; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := byte(1)
	for i := nk; i < total; i++ {
		t := w[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ uint32(rcon)<<24
			rcon = xtime(rcon)
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
	for r := 0; r <= c.rounds; r++ {
		copy(c.enc[r][:], w[4*r:4*r+4])
	}
}

// Encrypt encrypts one 16-byte block.
func (c *Cipher) Encrypt(dst, src []byte) {
	checkBlock(dst, src)
	rk := &c.enc
	s0 := binary.BigEndian.Uint32(src[0:]) ^ rk[0][0]
	s1 := binary.BigEndian.Uint32(src[4:]) ^ rk[0][1]
	s2 := binary.BigEndian.Uint32(src[8:]) ^ rk[0][2]
	s3 := binary.BigEndian.Uint32(src[12:]) ^ rk[0][3]
	for r := 1; r < c.rounds; r++ {
		t0 := subRows(&sbox, s0, s1, s2, s3)
		t1 := subRows(&sbox, s1, s2, s3, s0)
		t2 := subRows(&sbox, s2, s3, s0, s1)
		t3 := subRows(&sbox, s3, s0, s1, s2)
		s0 = mixColumn(t0) ^ rk[r][0]
		s1 = mixColumn(t1) ^ rk[r][1]
		s2 = mixColumn(t2) ^ rk[r][2]
		s3 = mixColumn(t3) ^ rk[r][3]
	}
	last := &rk[c.rounds]
	binary.BigEndian.PutUint32(dst[0:], subRows(&sbox, s0, s1, s2, s3)^last[0])
	binary.BigEndian.PutUint32(dst[4:], subRows(&sbox, s1, s2, s3, s0)^last[1])
	binary.BigEndian.PutUint32(dst[8:], subRows(&sbox, s2, s3, s0, s1)^last[2])
	binary.BigEndian.PutUint32(dst[12:], subRows(&sbox, s3, s0, s1, s2)^last[3])
}

// Decrypt decrypts one 16-byte block (straightforward inverse cipher;
// InvShiftRows moves row r of column c to column c+r).
func (c *Cipher) Decrypt(dst, src []byte) {
	checkBlock(dst, src)
	rk := &c.enc
	first := &rk[c.rounds]
	s0 := binary.BigEndian.Uint32(src[0:]) ^ first[0]
	s1 := binary.BigEndian.Uint32(src[4:]) ^ first[1]
	s2 := binary.BigEndian.Uint32(src[8:]) ^ first[2]
	s3 := binary.BigEndian.Uint32(src[12:]) ^ first[3]
	for r := c.rounds - 1; r >= 1; r-- {
		t0 := subRows(&invSbox, s0, s3, s2, s1)
		t1 := subRows(&invSbox, s1, s0, s3, s2)
		t2 := subRows(&invSbox, s2, s1, s0, s3)
		t3 := subRows(&invSbox, s3, s2, s1, s0)
		s0 = invMixColumn(t0 ^ rk[r][0])
		s1 = invMixColumn(t1 ^ rk[r][1])
		s2 = invMixColumn(t2 ^ rk[r][2])
		s3 = invMixColumn(t3 ^ rk[r][3])
	}
	binary.BigEndian.PutUint32(dst[0:], subRows(&invSbox, s0, s3, s2, s1)^rk[0][0])
	binary.BigEndian.PutUint32(dst[4:], subRows(&invSbox, s1, s0, s3, s2)^rk[0][1])
	binary.BigEndian.PutUint32(dst[8:], subRows(&invSbox, s2, s1, s0, s3)^rk[0][2])
	binary.BigEndian.PutUint32(dst[12:], subRows(&invSbox, s3, s2, s1, s0)^rk[0][3])
}

func checkBlock(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aescipher: input not a full block")
	}
}
