package descipher

import (
	"testing"

	"wisp/internal/cttest"
)

// TestConstantTime runs the fixed-vs-random timing test on DES and 3DES
// block encryption under one key.
func TestConstantTime(t *testing.T) {
	cttest.SkipIfUnreliable(t)
	key := []byte("0123456789abcdefFEDCBA98")
	single, err := NewCipher(key[:8])
	if err != nil {
		t.Fatal(err)
	}
	triple, err := NewTripleCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		op   func(dst, src []byte)
	}{{"DES", single.Encrypt}, {"3DES", triple.Encrypt}} {
		r := cttest.FixedVsRandom(cttest.Config{Samples: 20000, Batch: 4, Seed: 2}, BlockSize, c.op)
		t.Logf("%s encrypt: |t| = %.1f over %d samples (%d runs), ns/block fixed %.1f random %.1f",
			c.name, r.T, r.Samples, r.Runs, r.Means[0], r.Means[1])
		if r.Leaks() {
			t.Errorf("%s encrypt time depends on the block: |t| = %.1f > %d", c.name, r.T, cttest.Threshold)
		}
	}
}
