// Package descipher implements the Data Encryption Standard (FIPS 46-3)
// and Triple DES from scratch, including all permutation and substitution
// tables.
//
// The FIPS bit-selection tables below are the single source.  Package
// init derives from them the tables of the optimized-software form, the
// form the paper's software library runs and its Table 1 baseline
// measures; the block path has no bit-serial permutation and no branch on
// the key or the data:
//   - IP and FP are the standard five-step swap-mask sequence;
//   - E is computed by rotation: with both halves kept rotated left by one
//     bit, each S-box's six input bits sit in one byte of R or of R
//     rotated right by four (ERotations);
//   - substitution and P are fused into eight 64-entry tables (SPBox),
//     stored pre-rotated to match the halves;
//   - PC-1 and PC-2 run through lookup tables, and PC-2's tables emit each
//     round key already split into the byte-aligned chunks the round XORs
//     in.
//
// The wide bit permutations are what a 32-bit RISC core pays for in
// software and gets for free as custom-instruction wiring, which is where
// the paper's 31× (DES) and 33.9× (3DES) speedups come from.  The xt32
// assembly twin of this cipher lives in internal/kernels.
package descipher

import (
	"fmt"
	"math/bits"
)

// BlockSize is the DES block size in bytes.
const BlockSize = 8

// Bit-selection tables from FIPS 46-3.  Entries are 1-based bit positions
// in the conventional DES numbering (bit 1 = most significant).

// initialPermutation (IP).
var initialPermutation = [64]byte{
	58, 50, 42, 34, 26, 18, 10, 2,
	60, 52, 44, 36, 28, 20, 12, 4,
	62, 54, 46, 38, 30, 22, 14, 6,
	64, 56, 48, 40, 32, 24, 16, 8,
	57, 49, 41, 33, 25, 17, 9, 1,
	59, 51, 43, 35, 27, 19, 11, 3,
	61, 53, 45, 37, 29, 21, 13, 5,
	63, 55, 47, 39, 31, 23, 15, 7,
}

// finalPermutation (IP⁻¹).
var finalPermutation = [64]byte{
	40, 8, 48, 16, 56, 24, 64, 32,
	39, 7, 47, 15, 55, 23, 63, 31,
	38, 6, 46, 14, 54, 22, 62, 30,
	37, 5, 45, 13, 53, 21, 61, 29,
	36, 4, 44, 12, 52, 20, 60, 28,
	35, 3, 43, 11, 51, 19, 59, 27,
	34, 2, 42, 10, 50, 18, 58, 26,
	33, 1, 41, 9, 49, 17, 57, 25,
}

// expansion (E): 32 → 48 bits.
var expansion = [48]byte{
	32, 1, 2, 3, 4, 5,
	4, 5, 6, 7, 8, 9,
	8, 9, 10, 11, 12, 13,
	12, 13, 14, 15, 16, 17,
	16, 17, 18, 19, 20, 21,
	20, 21, 22, 23, 24, 25,
	24, 25, 26, 27, 28, 29,
	28, 29, 30, 31, 32, 1,
}

// pPermutation (P): 32 → 32 bits after the S-boxes.
var pPermutation = [32]byte{
	16, 7, 20, 21, 29, 12, 28, 17,
	1, 15, 23, 26, 5, 18, 31, 10,
	2, 8, 24, 14, 32, 27, 3, 9,
	19, 13, 30, 6, 22, 11, 4, 25,
}

// permutedChoice1 (PC-1): 64 → 56 key bits.
var permutedChoice1 = [56]byte{
	57, 49, 41, 33, 25, 17, 9,
	1, 58, 50, 42, 34, 26, 18,
	10, 2, 59, 51, 43, 35, 27,
	19, 11, 3, 60, 52, 44, 36,
	63, 55, 47, 39, 31, 23, 15,
	7, 62, 54, 46, 38, 30, 22,
	14, 6, 61, 53, 45, 37, 29,
	21, 13, 5, 28, 20, 12, 4,
}

// permutedChoice2 (PC-2): 56 → 48 round-key bits.
var permutedChoice2 = [48]byte{
	14, 17, 11, 24, 1, 5,
	3, 28, 15, 6, 21, 10,
	23, 19, 12, 4, 26, 8,
	16, 7, 27, 20, 13, 2,
	41, 52, 31, 37, 47, 55,
	30, 40, 51, 45, 33, 48,
	44, 49, 39, 56, 34, 53,
	46, 42, 50, 36, 29, 32,
}

// keyShifts: left-rotation amounts per round for C and D halves.
var keyShifts = [16]byte{1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1}

// sBoxes: the eight DES substitution boxes, indexed [box][row][column].
var sBoxes = [8][4][16]byte{
	{ // S1
		{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7},
		{0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8},
		{4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0},
		{15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13},
	},
	{ // S2
		{15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10},
		{3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5},
		{0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15},
		{13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9},
	},
	{ // S3
		{10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8},
		{13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1},
		{13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7},
		{1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12},
	},
	{ // S4
		{7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15},
		{13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9},
		{10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4},
		{3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14},
	},
	{ // S5
		{2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9},
		{14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6},
		{4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14},
		{11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3},
	},
	{ // S6
		{12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11},
		{10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8},
		{9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6},
		{4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13},
	},
	{ // S7
		{4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1},
		{13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6},
		{1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2},
		{6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12},
	},
	{ // S8
		{13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7},
		{1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2},
		{7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8},
		{2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11},
	},
}

// permute applies a 1-based bit-selection table to src (width source bits),
// producing len(table) output bits, MSB first.  It is the specification
// form: outside the tests it only builds the lookup tables below.
func permute(src uint64, srcBits int, table []byte) uint64 {
	var out uint64
	for _, pos := range table {
		out <<= 1
		out |= src >> uint(srcBits-int(pos)) & 1
	}
	return out
}

// Lookup tables derived from the FIPS tables at init.  Every permutation
// here is a bit selection, so it is the OR of what each chunk of its
// input contributes.
var (
	// spBox[i][v] is SPBox(i, v) rotated left by one bit.
	spBox [8][64]uint32
	// pc1Tab[j][v] is PC-1's output for key nibble j (from the most
	// significant) holding v.
	pc1Tab [16][16]uint64
	// pc2Tab[j][v] is the packed round key (see packSubkey) that PC-2
	// makes of 7-bit chunk j of C‖D holding v.
	pc2Tab [8][128]uint64
)

func init() {
	for box := 0; box < 8; box++ {
		for v := 0; v < 64; v++ {
			s := sBoxes[box][v&0x20>>4|v&1][v>>1&0xF]
			p := uint32(permute(uint64(s)<<uint(4*(7-box)), 32, pPermutation[:]))
			spBox[box][v] = bits.RotateLeft32(p, 1)
		}
	}
	for j := 0; j < 16; j++ {
		for v := 0; v < 16; v++ {
			pc1Tab[j][v] = permute(uint64(v)<<uint(60-4*j), 64, permutedChoice1[:])
		}
	}
	for j := 0; j < 8; j++ {
		for v := 0; v < 128; v++ {
			pc2Tab[j][v] = packSubkey(permute(uint64(v)<<uint(49-7*j), 56, permutedChoice2[:]))
		}
	}
}

// packSubkey rearranges a 48-bit FIPS subkey into the form the round XORs
// in: S-box i's 6-bit chunk goes to byte 3-i/2 of the high word for odd i
// and of the low word for even i, the byte where Cipher.rounds reads that
// box's E bits.
func packSubkey(k uint64) uint64 {
	var p uint64
	for i, c := range RoundKeyChunks(k) {
		p |= uint64(c) << uint(32*(i&1)+8*(3-i/2))
	}
	return p
}

// unpackSubkey inverts packSubkey.
func unpackSubkey(p uint64) uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k |= (p >> uint(32*(i&1)+8*(3-i/2)) & 0x3F) << uint(42-6*i)
	}
	return k
}

// swapMove exchanges the bits of b selected by m with the bits of a
// selected by m<<n.
func swapMove(a, b uint32, n uint, m uint32) (uint32, uint32) {
	t := (a>>n ^ b) & m
	return a ^ t<<n, b ^ t
}

// ip is the initial permutation as five swap-mask steps on the halves.
func ip(block uint64) uint64 {
	l, r := uint32(block>>32), uint32(block)
	l, r = swapMove(l, r, 4, 0x0F0F0F0F)
	l, r = swapMove(l, r, 16, 0x0000FFFF)
	r, l = swapMove(r, l, 2, 0x33333333)
	r, l = swapMove(r, l, 8, 0x00FF00FF)
	l, r = swapMove(l, r, 1, 0x55555555)
	return uint64(l)<<32 | uint64(r)
}

// fp is IP⁻¹: ip's steps in reverse order (each step is an involution).
func fp(block uint64) uint64 {
	l, r := uint32(block>>32), uint32(block)
	l, r = swapMove(l, r, 1, 0x55555555)
	r, l = swapMove(r, l, 8, 0x00FF00FF)
	r, l = swapMove(r, l, 2, 0x33333333)
	l, r = swapMove(l, r, 16, 0x0000FFFF)
	l, r = swapMove(l, r, 4, 0x0F0F0F0F)
	return uint64(l)<<32 | uint64(r)
}

// sp4 XORs the fused S+P entries of boxes b, b+2, b+4 and b+6, whose
// inputs are the low six bits of bytes 3, 2, 1 and 0 of x.
func sp4(x uint32, b int) uint32 {
	return spBox[b][x>>24&0x3F] ^ spBox[b+2][x>>16&0x3F] ^
		spBox[b+4][x>>8&0x3F] ^ spBox[b+6][x&0x3F]
}

// Cipher is a DES block cipher with an expanded key schedule.
type Cipher struct {
	ks [16]uint64 // packed round keys (packSubkey)
}

// NewCipher expands an 8-byte key (parity bits ignored, per common
// practice) into the 16 round subkeys.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != 8 {
		return nil, fmt.Errorf("descipher: key must be 8 bytes, got %d", len(key))
	}
	c := &Cipher{}
	c.expandKey(key)
	return c, nil
}

func (c *Cipher) expandKey(key []byte) {
	k := be64(key)
	var cd uint64 // 56 bits: C (28) | D (28)
	for j := 0; j < 16; j++ {
		cd |= pc1Tab[j][k>>uint(60-4*j)&0xF]
	}
	ch := uint32(cd >> 28 & 0x0FFFFFFF)
	dh := uint32(cd & 0x0FFFFFFF)
	for i, s := range keyShifts {
		ch = (ch<<s | ch>>(28-s)) & 0x0FFFFFFF
		dh = (dh<<s | dh>>(28-s)) & 0x0FFFFFFF
		cd = uint64(ch)<<28 | uint64(dh)
		var p uint64
		for j := 0; j < 8; j++ {
			p |= pc2Tab[j][cd>>uint(49-7*j)&0x7F]
		}
		c.ks[i] = p
	}
}

func be64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

func putBE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> uint(56-8*i))
	}
}

// enter applies IP and splits the block into halves rotated left by one
// bit, the form rounds works on.
func enter(block uint64) (l, r uint32) {
	x := ip(block)
	return bits.RotateLeft32(uint32(x>>32), 1), bits.RotateLeft32(uint32(x), 1)
}

// leave undoes enter's rotation, swaps the halves (the preoutput is
// R16‖L16) and applies FP.
func leave(l, r uint32) uint64 {
	return fp(uint64(bits.RotateLeft32(r, -1))<<32 | uint64(bits.RotateLeft32(l, -1)))
}

// rounds runs the 16 rounds on halves rotated left by one bit and
// returns (L16, R16); decrypt takes the round keys in reverse order.
// S-box i reads (R >>> s_i) & 0x3F with s_i = 27-4i (ERotations), which
// is (r >>> (28-4i)) & 0x3F here: a byte of r for odd i, a byte of
// r >>> 4 for even i.  The SP entries come out rotated the same way.  The
// round is written out in the loop rather than called: a call's stack
// traffic made the time of 3DES vary with the block in TestConstantTime.
func (c *Cipher) rounds(l, r uint32, decrypt bool) (uint32, uint32) {
	for i := 0; i < 16; i++ {
		k := c.ks[i]
		if decrypt {
			k = c.ks[15-i]
		}
		l, r = r, l^sp4(r^uint32(k>>32), 1)^sp4(bits.RotateLeft32(r, -4)^uint32(k), 0)
	}
	return l, r
}

// Encrypt encrypts one 8-byte block (dst and src may overlap).
func (c *Cipher) Encrypt(dst, src []byte) {
	checkBlock(dst, src)
	l, r := enter(be64(src))
	putBE64(dst, leave(c.rounds(l, r, false)))
}

// Decrypt decrypts one 8-byte block.
func (c *Cipher) Decrypt(dst, src []byte) {
	checkBlock(dst, src)
	l, r := enter(be64(src))
	putBE64(dst, leave(c.rounds(l, r, true)))
}

// BlockSize returns the cipher block size (8).
func (c *Cipher) BlockSize() int { return BlockSize }

func checkBlock(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("descipher: input not a full block")
	}
}

// TripleCipher is EDE Triple DES.  It accepts 16-byte (two-key, K1 K2 K1)
// or 24-byte (three-key) keys.  The three schedules are held by value, so
// building one is a single allocation.
type TripleCipher struct {
	c1, c2, c3 Cipher
}

// NewTripleCipher builds a 3DES cipher from a 16- or 24-byte key.
func NewTripleCipher(key []byte) (*TripleCipher, error) {
	var k1, k2, k3 []byte
	switch len(key) {
	case 16:
		k1, k2, k3 = key[0:8], key[8:16], key[0:8]
	case 24:
		k1, k2, k3 = key[0:8], key[8:16], key[16:24]
	default:
		return nil, fmt.Errorf("descipher: 3DES key must be 16 or 24 bytes, got %d", len(key))
	}
	t := &TripleCipher{}
	t.c1.expandKey(k1)
	t.c2.expandKey(k2)
	t.c3.expandKey(k3)
	return t, nil
}

// Encrypt performs EDE encryption of one block.  FP followed by IP is the
// identity, so between the passes only the halves swap.
func (t *TripleCipher) Encrypt(dst, src []byte) {
	checkBlock(dst, src)
	l, r := enter(be64(src))
	l, r = t.c1.rounds(l, r, false)
	l, r = t.c2.rounds(r, l, true)
	l, r = t.c3.rounds(r, l, false)
	putBE64(dst, leave(l, r))
}

// Decrypt performs DED decryption of one block.
func (t *TripleCipher) Decrypt(dst, src []byte) {
	checkBlock(dst, src)
	l, r := enter(be64(src))
	l, r = t.c3.rounds(l, r, true)
	l, r = t.c2.rounds(r, l, false)
	l, r = t.c1.rounds(r, l, true)
	putBE64(dst, leave(l, r))
}

// BlockSize returns the cipher block size (8).
func (t *TripleCipher) BlockSize() int { return BlockSize }
