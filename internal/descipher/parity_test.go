package descipher

import (
	"math/rand"
	"testing"
)

// Specification-form references: the FIPS 46-3 bit-selection tables
// applied one bit at a time through permute.  The swap-mask IP/FP, the
// rotated E with fused S+P tables, the table-driven key schedule and the
// TIE hooks built on them must match these exactly.

func specSPBox(box int, v byte) uint32 {
	s := sBoxes[box][(v&0x20)>>4|v&1][v>>1&0xF]
	return uint32(permute(uint64(s)<<uint(4*(7-box)), 32, pPermutation[:]))
}

func specFeistel(r uint32, subkey uint64) uint32 {
	x := permute(uint64(r), 32, expansion[:]) ^ subkey
	var out uint32
	for box := 0; box < 8; box++ {
		six := byte(x >> uint(42-6*box) & 0x3F)
		out = out<<4 | uint32(sBoxes[box][(six&0x20)>>4|six&1][six>>1&0xF])
	}
	return uint32(permute(uint64(out), 32, pPermutation[:]))
}

func specSubkeys(key []byte) [16]uint64 {
	cd := permute(be64(key), 64, permutedChoice1[:])
	ch, dh := uint32(cd>>28&0x0FFFFFFF), uint32(cd&0x0FFFFFFF)
	var out [16]uint64
	for i, s := range keyShifts {
		ch = (ch<<s | ch>>(28-s)) & 0x0FFFFFFF
		dh = (dh<<s | dh>>(28-s)) & 0x0FFFFFFF
		out[i] = permute(uint64(ch)<<28|uint64(dh), 56, permutedChoice2[:])
	}
	return out
}

func TestSPBoxMatchesSpec(t *testing.T) {
	for box := 0; box < 8; box++ {
		for v := 0; v < 64; v++ {
			if got, want := SPBox(box, byte(v)), specSPBox(box, byte(v)); got != want {
				t.Fatalf("SPBox(%d, %#02x) = %#08x, want %#08x", box, v, got, want)
			}
		}
	}
}

func TestIPFPMatchSpec(t *testing.T) {
	check := func(block uint64) {
		t.Helper()
		if got, want := IP(block), permute(block, 64, initialPermutation[:]); got != want {
			t.Fatalf("IP(%#016x) = %#016x, want %#016x", block, got, want)
		}
		if got, want := FP(block), permute(block, 64, finalPermutation[:]); got != want {
			t.Fatalf("FP(%#016x) = %#016x, want %#016x", block, got, want)
		}
	}
	for bit := 0; bit < 64; bit++ {
		check(1 << uint(bit))
	}
	rng := rand.New(rand.NewSource(106))
	for i := 0; i < 10000; i++ {
		check(rng.Uint64())
	}
}

func TestFeistelAndKeyScheduleMatchSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	key := make([]byte, 8)
	for i := 0; i < 1000; i++ {
		rng.Read(key)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.Subkeys(), specSubkeys(key); got != want {
			t.Fatalf("key %x: Subkeys = %x, want %x", key, got, want)
		}
		r, k := rng.Uint32(), rng.Uint64()&(1<<48-1)
		if got, want := Feistel(r, k), specFeistel(r, k); got != want {
			t.Fatalf("Feistel(%#08x, %#012x) = %#08x, want %#08x", r, k, got, want)
		}
	}
}

// TestTripleCipherAllocations pins the key set-up an SSL session pays to
// one allocation, and the block ops to none.
func TestTripleCipherAllocations(t *testing.T) {
	key := make([]byte, 24)
	if n := testing.AllocsPerRun(100, func() { _, _ = NewTripleCipher(key) }); n != 1 {
		t.Errorf("NewTripleCipher: %v allocs, want 1", n)
	}
	tc, err := NewTripleCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if n := testing.AllocsPerRun(100, func() { tc.Encrypt(buf, buf); tc.Decrypt(buf, buf) }); n != 0 {
		t.Errorf("3DES Encrypt+Decrypt: %v allocs, want 0", n)
	}
}
