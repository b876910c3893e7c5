package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration of the in-process training timings.
//
// On a shared host the same code's speed drifts by 20-30% over tens of
// seconds, so two sets of runs minutes apart disagree by more than any
// bound the benchmark may set. Other tenants slow it in two ways: some
// windows slow arithmetic, others memory access. A fixed reference
// loop with a share of each, timed just before a measured call, slows
// by about the same factor in the same windows. On a 2-vCPU Xeon host,
// in two 5-6 minute recordings, per-iteration `Iterate` time in 20 s
// windows spread by 0.10-0.15 (interquartile range over median) and its
// ratio to the reference time by 0.04-0.07; an arithmetic loop alone
// tracked one recording (0.03) but not the other (0.08-0.12), a memory
// loop alone the reverse (0.13 against 0.05-0.07). The training metrics
// therefore price each call at reference speed, its time × refNominal
// / the reference time just before it. The loops touch none of the
// program's code or data, so a change to the program moves the
// calibrated figure by the same share as the raw one; the raw figures
// stay in the printed lines and the per-layer metrics.
const (
	// refNominal is the reference time on the reference host, 5 ms
	// for each loop; on the 2-vCPU Xeon host above the arithmetic loop
	// took a median 4.6 ms and the memory loop 5.1 ms.
	refNominal = 10 * time.Millisecond
	refSteps   = 2_000_000 // xorshift steps per goroutine
	refTouches = 300_000   // random table updates per goroutine
	// refTableWords is each goroutine's table, 16 MB: beyond the
	// caches, as the samplers' count tables are.
	refTableWords = 1 << 22
	// refThreads matches the samplers' Threads, so the loops weigh both
	// CPUs the way an iteration does.
	refThreads = 2
)

var refSink atomic.Uint64

// refTables is the memory loop's tables, mapped outside the Go heap so
// they never show in heap metrics or collector work, and written once
// so the loop never pays for first-touch page faults.
var refTables = sync.OnceValue(func() [][]uint32 {
	n := refThreads * refTableWords
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	all := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	for i := range all {
		all[i] = uint32(i)
	}
	tables := make([][]uint32, refThreads)
	for g := range tables {
		tables[g] = all[g*refTableWords : (g+1)*refTableWords]
	}
	return tables
})

// hostRef collects garbage first, so no collector work overlaps the
// loops, then times refSteps xorshift steps and refTouches random
// table updates on each of refThreads goroutines. It returns the two
// loops' time and the time spent in all, collection included, which
// callers keep out of their timings.
func hostRef() (ref, total time.Duration) {
	t0 := time.Now()
	tables := refTables()
	runtime.GC()
	t1 := time.Now()
	onEach(func(g int) {
		x := uint64(0x9e3779b97f4a7c15) + uint64(g)
		for range refSteps {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink.Add(x)
	})
	onEach(func(g int) {
		t, x := tables[g], uint64(0x2545f4914f6cdd1d)+uint64(g)
		for range refTouches {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			t[x&(refTableWords-1)] += uint32(x)
		}
		refSink.Add(uint64(t[0]))
	})
	t2 := time.Now()
	return t2.Sub(t1), t2.Sub(t0)
}

// onEach runs f on refThreads goroutines and waits for them.
func onEach(f func(g int)) {
	var wg sync.WaitGroup
	for g := range refThreads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(g)
		}()
	}
	wg.Wait()
}

// atRef prices d, timed when the reference took ref, at reference
// speed, in milliseconds.
func atRef(d, ref time.Duration) float64 { return ms(d) * float64(refNominal) / float64(ref) }
