package aescipher

import (
	"crypto/aes"
	"testing"
)

// BenchmarkCipherBlock times one AES-128 block each way, beside crypto/aes
// on the same key (hardware AES where the CPU has it).
//
//	go test -bench CipherBlock -benchmem ./internal/aescipher/
func BenchmarkCipherBlock(b *testing.B) {
	key := []byte("0123456789abcdef")
	ours, err := NewCipher(key)
	if err != nil {
		b.Fatal(err)
	}
	std, err := aes.NewCipher(key)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		op   func(dst, src []byte)
	}{
		{"aes-enc", ours.Encrypt}, {"aes-enc-stdlib", std.Encrypt},
		{"aes-dec", ours.Decrypt}, {"aes-dec-stdlib", std.Decrypt},
	} {
		b.Run(c.name, func(b *testing.B) { benchBlock(b, c.op) })
	}
}

func benchBlock(b *testing.B, op func(dst, src []byte)) {
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op(buf, buf)
	}
}
