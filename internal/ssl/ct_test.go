package ssl

import (
	"math/rand"
	"testing"

	"wisp/internal/cttest"
	"wisp/internal/hashes"
)

// TestMACCheckConstantTime runs the timing test on Open's MAC check: a
// correct MAC against one wrong in its first byte, the pair an early-exit
// compare tells apart soonest.  The check costs about 0.8 µs, nearly all
// of it the HMAC, and an early exit saves only the last 15 byte compares,
// so the test takes 150 000 samples: at that size an early-exit compare
// in verifyMAC's place read |t| of 49 to 174 on the tuning host.  The
// timed op only stores verifyMAC's answer; branching on it there made the
// accepting class measurably slower (|t| 17 to 44) with the constant-time
// compare in place.
func TestMACCheckConstantTime(t *testing.T) {
	cttest.SkipIfUnreliable(t)
	rng := rand.New(rand.NewSource(1))
	keyBlock := make([]byte, keyBlockLen)
	rng.Read(keyBlock)
	client, err := newSession(keyBlock, true)
	if err != nil {
		t.Fatal(err)
	}
	server, err := newSession(keyBlock, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16)
	rng.Read(payload)
	good := append([]byte(nil), client.recordMAC(client.sendMAC, server.recvSeq, payload)...)
	const n = 150000
	macs := make([]byte, n*hashes.MD5Size)
	accepted := 0
	res := make([]bool, n)
	r := cttest.Run(cttest.Config{Samples: n, Batch: 2, Seed: 2},
		func(i, class int) {
			mac := macs[i*hashes.MD5Size : (i+1)*hashes.MD5Size]
			copy(mac, good)
			if class == 1 {
				mac[0] ^= 1
			}
		},
		func(i int) {
			res[i] = server.verifyMAC(payload, macs[i*hashes.MD5Size:(i+1)*hashes.MD5Size])
		})
	for _, ok := range res {
		if ok {
			accepted++
		}
	}
	t.Logf("verifyMAC: |t| = %.1f over %d samples (%d runs), ns/check correct %.1f wrong %.1f",
		r.T, r.Samples, r.Runs, r.Means[0], r.Means[1])
	if r.Leaks() {
		t.Errorf("MAC check time depends on where the MAC is wrong: |t| = %.1f > %d", r.T, cttest.Threshold)
	}
	if accepted == 0 {
		t.Error("verifyMAC never accepted the correct MAC")
	}
}
