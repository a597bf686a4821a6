package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// hostBarrier is a reusable rendezvous for the rank goroutines of one world.
// It synchronizes on the host only: the simulated clocks are untouched, so
// the benchmark can cut host-time samples at op boundaries without changing
// what the simulated machine measures. The last goroutine to arrive runs the
// optional action while every other one is still parked, so the action may
// read and write benchmark state without further locking.
type hostBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, left int
	gen     uint64
}

func newHostBarrier(n int) *hostBarrier {
	b := &hostBarrier{n: n, left: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *hostBarrier) Wait(action func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.left--
	if b.left == 0 {
		if action != nil {
			action()
		}
		b.left = b.n
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memSnap is the slice of runtime.MemStats the benchmark reports: bytes
// allocated and stop-the-world GC pause time, both cumulative.
type memSnap struct {
	alloc   uint64
	pauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs}
}

// perOp returns the allocation (MB) and GC pause (ms) per op between two
// snapshots.
func (a memSnap) perOp(b memSnap, ops int) (allocMB, pauseMs float64) {
	if ops == 0 {
		return 0, 0
	}
	return float64(b.alloc-a.alloc) / 1e6 / float64(ops), float64(b.pauseNs-a.pauseNs) / 1e6 / float64(ops)
}

// peakRelErr is the peak-normalized maximum componentwise error of got
// against want, the metric the library's wire-precision bound is stated in.
func peakRelErr(got, want []complex128) float64 {
	peak := 0.0
	for _, v := range want {
		peak = math.Max(peak, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
	}
	if peak == 0 {
		return 0
	}
	m := 0.0
	for i := range want {
		m = math.Max(m, math.Abs(real(got[i])-real(want[i])))
		m = math.Max(m, math.Abs(imag(got[i])-imag(want[i])))
	}
	return m / peak
}

// parallelFor runs f(i) for every i in [0, n), each on its own goroutine
// (one per rank, as the simulator runs ranks), and returns once all have
// finished.
func parallelFor(n int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}
