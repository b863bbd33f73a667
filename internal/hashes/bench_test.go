package hashes

import (
	stdmd5 "crypto/md5"
	stdsha1 "crypto/sha1"
	"testing"
)

// Benchmark results land here so the compiler keeps the calls.
var (
	md5Sink  [MD5Size]byte
	sha1Sink [SHA1Size]byte
)

// BenchmarkDigest64 times one-shot digests of a 64-byte message (one data
// block plus the padding block), beside crypto/md5 and crypto/sha1.
//
//	go test -bench Digest64 -benchmem ./internal/hashes/
func BenchmarkDigest64(b *testing.B) {
	msg := make([]byte, 64)
	for _, c := range []struct {
		name string
		sum  func([]byte)
	}{
		{"md5", func(p []byte) { md5Sink = MD5Sum(p) }}, {"md5-stdlib", func(p []byte) { md5Sink = stdmd5.Sum(p) }},
		{"sha1", func(p []byte) { sha1Sink = SHA1Sum(p) }}, {"sha1-stdlib", func(p []byte) { sha1Sink = stdsha1.Sum(p) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.sum(msg)
			}
		})
	}
}
