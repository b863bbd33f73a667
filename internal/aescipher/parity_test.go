package aescipher

import (
	"math/rand"
	"testing"
)

// Specification-form references: FIPS 197's bit-serial GF(2⁸) multiply and
// the MixColumns matrices written out byte by byte.  The optimized round
// functions and the TIE hooks built on them must match these exactly.

func specGFMul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1B
		}
		b >>= 1
	}
	return p
}

func specColumn(col uint32, m [4]byte) uint32 {
	a := [4]byte{byte(col >> 24), byte(col >> 16), byte(col >> 8), byte(col)}
	var out uint32
	for r := 0; r < 4; r++ {
		var b byte
		for k := 0; k < 4; k++ {
			b ^= specGFMul(a[(r+k)%4], m[k])
		}
		out = out<<8 | uint32(b)
	}
	return out
}

func TestGFMulMatchesSpec(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := GFMul(byte(a), byte(b)), specGFMul(byte(a), byte(b)); got != want {
				t.Fatalf("GFMul(%#02x, %#02x) = %#02x, want %#02x", a, b, got, want)
			}
		}
	}
}

func TestMixColumnMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for i := 0; i < 100000; i++ {
		col := rng.Uint32()
		if got, want := MixColumn(col), specColumn(col, [4]byte{2, 3, 1, 1}); got != want {
			t.Fatalf("MixColumn(%#08x) = %#08x, want %#08x", col, got, want)
		}
		if got, want := InvMixColumn(col), specColumn(col, [4]byte{14, 11, 13, 9}); got != want {
			t.Fatalf("InvMixColumn(%#08x) = %#08x, want %#08x", col, got, want)
		}
	}
}

func TestSubWordMatchesSBox(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for i := 0; i < 1000; i++ {
		w := rng.Uint32()
		want := uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xFF])<<16 |
			uint32(sbox[w>>8&0xFF])<<8 | uint32(sbox[w&0xFF])
		if got := SubWord(w); got != want {
			t.Fatalf("SubWord(%#08x) = %#08x, want %#08x", w, got, want)
		}
	}
}

func TestBlockOpsDoNotAllocate(t *testing.T) {
	c, err := NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if n := testing.AllocsPerRun(100, func() { c.Encrypt(buf, buf); c.Decrypt(buf, buf) }); n != 0 {
		t.Errorf("Encrypt+Decrypt: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = NewCipher(buf) }); n != 1 {
		t.Errorf("NewCipher: %v allocs, want 1", n)
	}
}
