package descipher

import (
	"bytes"
	"crypto/des"
	"math/rand"
	"testing"
)

// TestDifferentialDES cross-checks the platform's DES against crypto/des on
// 1000 random key/block pairs: same ciphertext per block, and decryption
// round-trips.  The stdlib rejects odd-parity keys nowhere (DES ignores the
// parity bits), so raw random keys are valid for both.
func TestDifferentialDES(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	key := make([]byte, 8)
	block := make([]byte, 8)
	ours := make([]byte, 8)
	ref := make([]byte, 8)
	back := make([]byte, 8)
	for i := 0; i < 1000; i++ {
		rng.Read(key)
		rng.Read(block)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatalf("case %d: NewCipher: %v", i, err)
		}
		std, err := des.NewCipher(key)
		if err != nil {
			t.Fatalf("case %d: crypto/des: %v", i, err)
		}
		c.Encrypt(ours, block)
		std.Encrypt(ref, block)
		if !bytes.Equal(ours, ref) {
			t.Fatalf("case %d: key %x block %x: got %x, crypto/des %x", i, key, block, ours, ref)
		}
		c.Decrypt(back, ours)
		if !bytes.Equal(back, block) {
			t.Fatalf("case %d: decrypt round-trip failed: %x -> %x", i, block, back)
		}
	}
}

// TestDifferentialTripleDES cross-checks 3DES (EDE3) against
// crypto/des.NewTripleDESCipher on 1000 random 24-byte keys.
func TestDifferentialTripleDES(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	key := make([]byte, 24)
	block := make([]byte, 8)
	ours := make([]byte, 8)
	ref := make([]byte, 8)
	back := make([]byte, 8)
	for i := 0; i < 1000; i++ {
		rng.Read(key)
		rng.Read(block)
		c, err := NewTripleCipher(key)
		if err != nil {
			t.Fatalf("case %d: NewTripleCipher: %v", i, err)
		}
		std, err := des.NewTripleDESCipher(key)
		if err != nil {
			t.Fatalf("case %d: crypto/des: %v", i, err)
		}
		c.Encrypt(ours, block)
		std.Encrypt(ref, block)
		if !bytes.Equal(ours, ref) {
			t.Fatalf("case %d: key %x block %x: got %x, crypto/des %x", i, key, block, ours, ref)
		}
		c.Decrypt(back, ours)
		if !bytes.Equal(back, block) {
			t.Fatalf("case %d: decrypt round-trip failed: %x -> %x", i, block, back)
		}
	}
}

// TestDifferentialTwoKeyTripleDES cross-checks two-key EDE (K1 K2 K1) on
// 1000 random 16-byte keys against crypto/des given the equivalent
// 24-byte key.
func TestDifferentialTwoKeyTripleDES(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	key := make([]byte, 16)
	block := make([]byte, 8)
	ours := make([]byte, 8)
	ref := make([]byte, 8)
	back := make([]byte, 8)
	for i := 0; i < 1000; i++ {
		rng.Read(key)
		rng.Read(block)
		c, err := NewTripleCipher(key)
		if err != nil {
			t.Fatalf("case %d: NewTripleCipher: %v", i, err)
		}
		std, err := des.NewTripleDESCipher(append(append([]byte{}, key...), key[:8]...))
		if err != nil {
			t.Fatalf("case %d: crypto/des: %v", i, err)
		}
		c.Encrypt(ours, block)
		std.Encrypt(ref, block)
		if !bytes.Equal(ours, ref) {
			t.Fatalf("case %d: key %x block %x: got %x, crypto/des %x", i, key, block, ours, ref)
		}
		c.Decrypt(back, ours)
		if !bytes.Equal(back, block) {
			t.Fatalf("case %d: decrypt round-trip failed: %x -> %x", i, block, back)
		}
	}
}
