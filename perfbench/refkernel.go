package main

import (
	"crypto/sha1"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The shared host this benchmark was tuned on changes speed by up to a
// factor of two over minutes, and every CPU-bound number follows it.  A
// run therefore times a fixed reference kernel after each closed-loop
// window and reports set-up time, throughput and CPU per op scaled to the
// speed at which the kernel takes refNominal.  The kernel uses only the
// standard library, so no change to the repository's code can move it.

// refNominal is the reference kernel's time on the tuning host (2 vCPUs
// of an Intel Xeon at a nominal 2.0 GHz) in a fast spell.
const refNominal = 150 * time.Millisecond

// refIters is the number of kernel iterations each processor runs.
const refIters = 5000

// refKernel runs the reference kernel on procs goroutines — 256-bit
// modular exponentiations and SHA-1 over 1 KiB, the kinds of work the
// workloads do — and returns its wall time.
func refKernel(procs int) time.Duration {
	rng := rand.New(rand.NewSource(7))
	m := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 256))
	m.SetBit(m, 255, 1).SetBit(m, 0, 1)
	e := new(big.Int).Rand(rng, m)
	b := new(big.Int).Rand(rng, m)
	buf := make([]byte, 1024)
	rng.Read(buf)
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := new(big.Int)
			for i := 0; i < refIters; i++ {
				x.Exp(b, e, m)
				sha1.Sum(buf)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
