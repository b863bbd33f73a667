package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the sample at or below it.
// xs is sorted in place.  +Inf entries (failed requests) sort last, so a
// failure counts as over every latency limit.  An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the nearest-rank 50th percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// minWindowSamples is the fewest samples a latency window holds, so that
// at least ten lie beyond its p99.
const minWindowSamples = 1000

// maxWindows caps the latency windows of one run.
const maxWindows = 21

// latencyWindows is how many consecutive windows n open-loop samples are
// cut into: an odd number, at most maxWindows, of at least
// minWindowSamples each.
func latencyWindows(n int) int {
	w := min(maxWindows, max(1, n/minWindowSamples))
	if w%2 == 0 {
		w--
	}
	return w
}

// windowedPercentile cuts xs (in send order) into latencyWindows(len(xs))
// consecutive windows and returns the median over the windows of each
// window's p-th percentile, so a stall moves one window, not the result.
func windowedPercentile(xs []float64, p float64) float64 {
	w := latencyWindows(len(xs))
	per := make([]float64, w)
	for i := range per {
		win := append([]float64(nil), xs[i*len(xs)/w:(i+1)*len(xs)/w]...)
		per[i] = percentile(win, p)
	}
	return median(per)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
