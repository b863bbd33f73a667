package cttest

import (
	"crypto/subtle"
	"math"
	"math/rand"
	"testing"
)

func TestWelchMatchesClosedForm(t *testing.T) {
	var w Welch
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10, 12}
	for _, x := range a {
		w.Add(0, x)
	}
	for _, x := range b {
		w.Add(1, x)
	}
	// means 3 and 7, sample variances 2.5 and 14.
	want := (3.0 - 7.0) / math.Sqrt(2.5/5+14.0/6)
	if got := w.T(); math.Abs(got-want) > 1e-12 {
		t.Errorf("T = %v, want %v", got, want)
	}
	var empty Welch
	empty.Add(0, 1)
	if empty.T() != 0 {
		t.Error("T with one sample is not 0")
	}
}

// sink keeps the compared results alive.
var sink int

// leakyEqual is the deliberately leaky control: it returns at the first
// differing byte, so its time reveals how long a prefix matched.
func leakyEqual(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// measureCompare times eq(secret, input) where class 0's input is the
// secret itself and class 1's is random.
func measureCompare(eq func(a, b []byte) int) Result {
	const n, size = 20000, 64
	rng := rand.New(rand.NewSource(1))
	secret := make([]byte, size)
	rng.Read(secret)
	inputs := make([]byte, n*size)
	return Run(Config{Samples: n, Batch: 8, Seed: 2},
		func(i, class int) {
			in := inputs[i*size : (i+1)*size]
			if class == 0 {
				copy(in, secret)
			} else {
				rng.Read(in)
			}
		},
		func(i int) { sink += eq(secret, inputs[i*size:(i+1)*size]) })
}

func TestFlagsEarlyExitCompare(t *testing.T) {
	SkipIfUnreliable(t)
	r := measureCompare(func(a, b []byte) int {
		if leakyEqual(a, b) {
			return 1
		}
		return 0
	})
	t.Logf("early-exit compare: |t| = %.1f, ns/call fixed %.1f random %.1f", r.T, r.Means[0], r.Means[1])
	if !r.Leaks() {
		t.Errorf("early-exit compare not flagged: |t| = %.1f <= %d", r.T, Threshold)
	}
}

func TestPassesConstantTimeCompare(t *testing.T) {
	SkipIfUnreliable(t)
	r := measureCompare(subtle.ConstantTimeCompare)
	t.Logf("constant-time compare: |t| = %.1f, ns/call fixed %.1f random %.1f", r.T, r.Means[0], r.Means[1])
	if r.Leaks() {
		t.Errorf("constant-time compare flagged: |t| = %.1f > %d", r.T, Threshold)
	}
}
