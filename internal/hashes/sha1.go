package hashes

import "encoding/binary"

// SHA1Size is the SHA-1 digest length in bytes.
const SHA1Size = 20

// SHA1BlockSize is the SHA-1 block size in bytes.
const SHA1BlockSize = 64

// SHA1 computes digests incrementally; use NewSHA1.
type SHA1 struct {
	h   [5]uint32
	buf [SHA1BlockSize]byte
	n   int
	len uint64
}

// NewSHA1 returns a fresh SHA-1 state.
func NewSHA1() *SHA1 {
	s := &SHA1{}
	s.Reset()
	return s
}

// Reset restores the initial chaining values.
func (s *SHA1) Reset() {
	s.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	s.n = 0
	s.len = 0
}

// Size returns SHA1Size.
func (s *SHA1) Size() int { return SHA1Size }

// BlockSize returns SHA1BlockSize.
func (s *SHA1) BlockSize() int { return SHA1BlockSize }

// Write absorbs p; it never fails.
func (s *SHA1) Write(p []byte) (int, error) {
	total := len(p)
	s.len += uint64(total)
	if s.n > 0 {
		c := copy(s.buf[s.n:], p)
		s.n += c
		p = p[c:]
		if s.n == SHA1BlockSize {
			s.block(s.buf[:])
			s.n = 0
		}
		if len(p) == 0 {
			return total, nil
		}
	}
	for len(p) >= SHA1BlockSize {
		s.block(p[:SHA1BlockSize])
		p = p[SHA1BlockSize:]
	}
	s.n = copy(s.buf[:], p)
	return total, nil
}

func rotl(x uint32, n uint) uint32 { return x<<n | x>>(32-n) }

func (s *SHA1) block(p []byte) {
	var w [80]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(p[4*i:])
	}
	for i := 16; i < 80; i++ {
		w[i] = rotl(w[i-3]^w[i-8]^w[i-14]^w[i-16], 1)
	}
	a, b, c, d, e := s.h[0], s.h[1], s.h[2], s.h[3], s.h[4]
	for i := 0; i < 80; i++ {
		var f, k uint32
		switch {
		case i < 20:
			f = (b & c) | (^b & d)
			k = 0x5A827999
		case i < 40:
			f = b ^ c ^ d
			k = 0x6ED9EBA1
		case i < 60:
			f = (b & c) | (b & d) | (c & d)
			k = 0x8F1BBCDC
		default:
			f = b ^ c ^ d
			k = 0xCA62C1D6
		}
		t := rotl(a, 5) + f + e + k + w[i]
		e, d, c, b, a = d, c, rotl(b, 30), a, t
	}
	s.h[0] += a
	s.h[1] += b
	s.h[2] += c
	s.h[3] += d
	s.h[4] += e
}

// Sum appends the digest of everything written so far to b (non-destructive).
// When b has spare capacity the append does not allocate.
func (s *SHA1) Sum(b []byte) []byte {
	out := s.sumArray()
	return append(b, out[:]...)
}

// sumArray finalizes a copy of the state into a value digest, keeping the
// one-shot and HMAC paths free of heap allocation.
func (s *SHA1) sumArray() [SHA1Size]byte {
	cp := *s
	var pad [SHA1BlockSize + 8]byte
	n := padLen(cp.n)
	pad[0] = 0x80
	binary.BigEndian.PutUint64(pad[n:], cp.len*8)
	cp.Write(pad[:n+8])
	var out [SHA1Size]byte
	for i, v := range cp.h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// SHA1Sum is the one-shot convenience.  It allocates nothing.
func SHA1Sum(data []byte) [SHA1Size]byte {
	var s SHA1
	s.Reset()
	s.Write(data)
	return s.sumArray()
}
