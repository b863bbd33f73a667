// Package cttest checks that an operation's running time does not depend
// on its input, in the style of dudect (Reparaz, Balasch and Verbauwhede,
// "Dude, is my code constant time?", DATE 2017).
//
// Run times an operation on inputs of two classes, usually one fixed input
// against fresh random ones (FixedVsRandom), and confirms a flagged leak
// with a second measurement.  The classes are interleaved in a random
// order, so drift in the host's speed falls on both alike.
// Welch's t-test then compares the two timing distributions: on all
// samples, and on the samples below each of a range of upper percentiles,
// since the slow tail is mostly interrupts and preemption.  A |t| above
// Threshold means the time depends on the class, that is, on the input.
package cttest

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

// Threshold is the |t| above which a measurement flags a leak.  dudect
// reads 4.5 as "probably" and 10 as "definitely" not constant time; the
// tests here use the strict bound so a noisy shared host does not fail
// a constant-time kernel.
const Threshold = 10

// crops is the number of upper-percentile crops tested beside the raw
// samples.
const crops = 100

// Welch accumulates the samples of two classes (Welford's online mean and
// variance) and reports Welch's t statistic.
type Welch struct {
	n, mean, m2 [2]float64
}

// Add records sample x of class 0 or 1.
func (w *Welch) Add(class int, x float64) {
	w.n[class]++
	d := x - w.mean[class]
	w.mean[class] += d / w.n[class]
	w.m2[class] += d * (x - w.mean[class])
}

// T returns Welch's t for mean(class 0) − mean(class 1), or 0 until each
// class has two samples.
func (w *Welch) T() float64 {
	if w.n[0] < 2 || w.n[1] < 2 {
		return 0
	}
	se := math.Sqrt(w.m2[0]/(w.n[0]-1)/w.n[0] + w.m2[1]/(w.n[1]-1)/w.n[1])
	if se == 0 {
		return 0
	}
	return (w.mean[0] - w.mean[1]) / se
}

// Config sizes a measurement.
type Config struct {
	Samples int   // timed samples, both classes together
	Batch   int   // calls per timed sample, to lift it above the clock's overhead
	Seed    int64 // draws the class of each sample
}

// Result is the outcome of a measurement.
type Result struct {
	T       float64 // the largest |t| over the raw samples and every crop
	Samples int
	// Means are the mean nanoseconds per call of class 0 and class 1.
	Means [2]float64
	// Runs is the number of measurements Run took (1 or 2).
	Runs int
}

// Leaks reports whether the measurement flags a timing leak.
func (r Result) Leaks() bool { return r.T > Threshold }

// Run measures op and, when that flags a leak, measures it once more with
// the next seed's class order and freshly prepared inputs, returning the
// second result.  A burst of host noise can push one measurement over the
// threshold; a leak in the code shows in both.
func Run(cfg Config, prepare func(i, class int), op func(i int)) Result {
	r := measure(cfg, prepare, op)
	if r.Leaks() {
		cfg.Seed++
		r = measure(cfg, prepare, op)
		r.Runs = 2
	}
	return r
}

// FixedVsRandom runs op over size-byte inputs: class 0 is one fixed input,
// class 1 fresh random inputs, both drawn from a stream apart from the
// class order's.  op gets a scratch output buffer and the input.
func FixedVsRandom(cfg Config, size int, op func(dst, src []byte)) Result {
	rng := rand.New(rand.NewSource(^cfg.Seed))
	fixed := make([]byte, size)
	rng.Read(fixed)
	inputs := make([]byte, cfg.Samples*size)
	dst := make([]byte, size)
	return Run(cfg,
		func(i, class int) {
			in := inputs[i*size : (i+1)*size]
			if class == 0 {
				copy(in, fixed)
			} else {
				rng.Read(in)
			}
		},
		func(i int) { op(dst, inputs[i*size:(i+1)*size]) })
}

// measure times op over cfg.Samples inputs.  It first calls prepare(i,
// class) for every sample, so input i of the drawn class exists before
// any timing starts; op(i) then runs cfg.Batch times per timed sample.
// Keeping every input in one array, whatever its class, gives both classes
// the same memory access pattern.
func measure(cfg Config, prepare func(i, class int), op func(i int)) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	class := make([]int, cfg.Samples)
	for i := range class {
		class[i] = rng.Intn(2)
		prepare(i, class[i])
	}
	for i := 0; i < cfg.Samples && i < 100; i++ { // warm caches and predictors
		op(i)
	}
	ns := make([]float64, cfg.Samples)
	runtime.GC()
	for i := range ns {
		start := time.Now()
		for j := 0; j < cfg.Batch; j++ {
			op(i)
		}
		ns[i] = float64(time.Since(start)) / float64(cfg.Batch)
	}

	// Crop thresholds at percentiles 1 − 0.5^(10·(k+1)/crops), as dudect
	// places them: dense near the top, where the noise lives.
	sorted := append([]float64(nil), ns...)
	sort.Float64s(sorted)
	var cut [crops]float64
	for k := range cut {
		p := 1 - math.Pow(0.5, 10*float64(k+1)/crops)
		cut[k] = sorted[int(p*float64(len(sorted)-1))]
	}
	var raw Welch
	var cropped [crops]Welch
	for i, x := range ns {
		raw.Add(class[i], x)
		for k := range cropped {
			if x < cut[k] {
				cropped[k].Add(class[i], x)
			}
		}
	}
	res := Result{T: math.Abs(raw.T()), Samples: cfg.Samples, Means: raw.mean, Runs: 1}
	for k := range cropped {
		res.T = math.Max(res.T, math.Abs(cropped[k].T()))
	}
	return res
}

// SkipIfUnreliable skips t under -short, and under the race detector,
// whose instrumentation of every memory access swamps the timings.
func SkipIfUnreliable(t testing.TB) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing test skipped under the race detector")
	}
}
