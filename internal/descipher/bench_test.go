package descipher

import (
	"crypto/des"
	"testing"
)

// BenchmarkCipherBlock times one DES and one 3DES (EDE3) block, beside
// crypto/des on the same keys.
//
//	go test -bench 'CipherBlock|TripleKeySchedule' -benchmem ./internal/descipher/
func BenchmarkCipherBlock(b *testing.B) {
	key := []byte("0123456789abcdefFEDCBA98")
	ours, err := NewCipher(key[:8])
	if err != nil {
		b.Fatal(err)
	}
	std, err := des.NewCipher(key[:8])
	if err != nil {
		b.Fatal(err)
	}
	ours3, err := NewTripleCipher(key)
	if err != nil {
		b.Fatal(err)
	}
	std3, err := des.NewTripleDESCipher(key)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		op   func(dst, src []byte)
	}{
		{"des", ours.Encrypt}, {"des-stdlib", std.Encrypt},
		{"3des", ours3.Encrypt}, {"3des-stdlib", std3.Encrypt},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, BlockSize)
			b.SetBytes(BlockSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.op(buf, buf)
			}
		})
	}
}

// BenchmarkTripleKeySchedule times building a three-key 3DES cipher, the
// key set-up every SSL session pays twice (one per direction).
func BenchmarkTripleKeySchedule(b *testing.B) {
	key := []byte("0123456789abcdefFEDCBA98")
	b.Run("wisp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewTripleCipher(key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := des.NewTripleDESCipher(key); err != nil {
				b.Fatal(err)
			}
		}
	})
}
