// Package hashes implements the MD5 and SHA-1 digest algorithms and HMAC
// from scratch.  SSL 3.0/TLS 1.0 — the transport-layer protocol whose
// transactions Figure 8 accelerates — uses both digests in its handshake
// and HMAC-MD5/HMAC-SHA1 for record-layer integrity; on the platform these
// run on the base core and therefore form part of the non-accelerated
// "miscellaneous" workload share.
package hashes

import (
	"encoding/binary"
	"math/bits"
)

// MD5Size is the MD5 digest length in bytes.
const MD5Size = 16

// MD5BlockSize is the MD5 block size in bytes.
const MD5BlockSize = 64

// md5Shifts holds the per-round left-rotation amounts.
var md5Shifts = [64]uint{
	7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
	5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
	4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
	6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
}

// md5K holds the binary-radian sine constants K[i] = floor(2³²·|sin(i+1)|).
var md5K = [64]uint32{
	0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee,
	0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
	0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
	0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
	0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa,
	0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
	0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
	0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
	0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
	0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
	0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05,
	0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
	0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039,
	0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
	0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
	0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
}

// MD5 computes digests incrementally; the zero value is not usable — call
// NewMD5.
type MD5 struct {
	h   [4]uint32
	buf [MD5BlockSize]byte
	n   int    // bytes buffered
	len uint64 // total bytes written
}

// NewMD5 returns a fresh MD5 state.
func NewMD5() *MD5 {
	m := &MD5{}
	m.Reset()
	return m
}

// Reset restores the initial chaining values.
func (m *MD5) Reset() {
	m.h = [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	m.n = 0
	m.len = 0
}

// Size returns MD5Size.
func (m *MD5) Size() int { return MD5Size }

// BlockSize returns MD5BlockSize.
func (m *MD5) BlockSize() int { return MD5BlockSize }

// Write absorbs p; it never fails.
func (m *MD5) Write(p []byte) (int, error) {
	total := len(p)
	m.len += uint64(total)
	if m.n > 0 {
		c := copy(m.buf[m.n:], p)
		m.n += c
		p = p[c:]
		if m.n == MD5BlockSize {
			m.block(m.buf[:])
			m.n = 0
		}
		if len(p) == 0 {
			return total, nil
		}
	}
	for len(p) >= MD5BlockSize {
		m.block(p[:MD5BlockSize])
		p = p[MD5BlockSize:]
	}
	m.n = copy(m.buf[:], p)
	return total, nil
}

// block compresses one 64-byte block: four rounds of 16 steps, each
// round with its own boolean function and message-word order.
func (m *MD5) block(p []byte) {
	var x [16]uint32
	for i := range x {
		x[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	a, b, c, d := m.h[0], m.h[1], m.h[2], m.h[3]
	// Round 1: F(b,c,d) = (b & c) | (^b & d), words in order.
	for i := 0; i < 16; i++ {
		f := (b&c | ^b&d) + a + md5K[i] + x[i]
		a, d, c = d, c, b
		b += bits.RotateLeft32(f, int(md5Shifts[i]))
	}
	// Round 2: G(b,c,d) = (d & b) | (^d & c), word (5i+1) mod 16.
	for i := 16; i < 32; i++ {
		f := (d&b | ^d&c) + a + md5K[i] + x[(5*i+1)&15]
		a, d, c = d, c, b
		b += bits.RotateLeft32(f, int(md5Shifts[i]))
	}
	// Round 3: H(b,c,d) = b ^ c ^ d, word (3i+5) mod 16.
	for i := 32; i < 48; i++ {
		f := (b ^ c ^ d) + a + md5K[i] + x[(3*i+5)&15]
		a, d, c = d, c, b
		b += bits.RotateLeft32(f, int(md5Shifts[i]))
	}
	// Round 4: I(b,c,d) = c ^ (b | ^d), word 7i mod 16.
	for i := 48; i < 64; i++ {
		f := (c ^ (b | ^d)) + a + md5K[i] + x[(7*i)&15]
		a, d, c = d, c, b
		b += bits.RotateLeft32(f, int(md5Shifts[i]))
	}
	m.h[0] += a
	m.h[1] += b
	m.h[2] += c
	m.h[3] += d
}

// Sum appends the digest of everything written so far to b.  The state may
// continue to be written to afterwards (Sum operates on a copy).  When b
// has spare capacity the append does not allocate.
func (m *MD5) Sum(b []byte) []byte {
	out := m.sumArray()
	return append(b, out[:]...)
}

// sumArray finalizes a copy of the state into a value digest, keeping the
// one-shot and HMAC paths free of heap allocation.
func (m *MD5) sumArray() [MD5Size]byte {
	cp := *m
	var pad [MD5BlockSize + 8]byte
	n := padLen(cp.n)
	pad[0] = 0x80
	binary.LittleEndian.PutUint64(pad[n:], cp.len*8)
	cp.Write(pad[:n+8])
	var out [MD5Size]byte
	for i, v := range cp.h {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// padLen is the length of the 0x80-and-zeros padding that takes a block
// holding n buffered bytes to 56 bytes mod 64, leaving room for the
// 8-byte message length.  MD5 and SHA-1 pad alike.
func padLen(n int) int {
	if n < 56 {
		return 56 - n
	}
	return 120 - n
}

// MD5Sum is the one-shot convenience.  It allocates nothing.
func MD5Sum(data []byte) [MD5Size]byte {
	var m MD5
	m.Reset()
	m.Write(data)
	return m.sumArray()
}
