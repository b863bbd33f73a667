package aescipher

import (
	"testing"

	"wisp/internal/cttest"
)

// TestConstantTime runs the fixed-vs-random timing test on both block
// directions under one key.
func TestConstantTime(t *testing.T) {
	cttest.SkipIfUnreliable(t)
	c, err := NewCipher([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []struct {
		name string
		op   func(dst, src []byte)
	}{{"encrypt", c.Encrypt}, {"decrypt", c.Decrypt}} {
		r := cttest.FixedVsRandom(cttest.Config{Samples: 20000, Batch: 4, Seed: 2}, BlockSize, dir.op)
		t.Logf("AES %s: |t| = %.1f over %d samples (%d runs), ns/block fixed %.1f random %.1f",
			dir.name, r.T, r.Samples, r.Runs, r.Means[0], r.Means[1])
		if r.Leaks() {
			t.Errorf("AES %s time depends on the block: |t| = %.1f > %d", dir.name, r.T, cttest.Threshold)
		}
	}
}
