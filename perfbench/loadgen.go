package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what a request returned: its HTTP status (0 when the
// transport failed) and the model version the response carried.
type outcome struct {
	Status  int
	Version int
}

func (o outcome) ok() bool   { return o.Status == 200 }
func (o outcome) shed() bool { return o.Status == 503 }

// sample is one request's timeline. In a closed loop Due equals Sent;
// in an open loop Due is the schedule slot, and the request's latency
// runs from Due so a stall is charged to every request it delays.
type sample struct {
	Index           int
	Due, Sent, Done time.Time
	outcome
}

func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }
func (s sample) late() time.Duration    { return s.Sent.Sub(s.Due) }

// clock is the time source of the load loops; tests substitute a
// virtual one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop issues request i at start + i/rate, for every slot due
// before until, over at most workers concurrent connections. A worker
// takes the next slot when it is free, so when every worker is busy
// requests go out late; their latency still counts from the due time
// and the lateness is kept in the sample.
func openLoop(clk clock, start, until time.Time, rate float64, workers int, do func(i int) outcome) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	return runWorkers(workers, func(out *[]sample) {
		for {
			i := int(next.Add(1) - 1)
			due := start.Add(time.Duration(i) * interval)
			if !due.Before(until) {
				return
			}
			clk.SleepUntil(due)
			sent := clk.Now()
			o := do(i)
			*out = append(*out, sample{Index: i, Due: due, Sent: sent, Done: clk.Now(), outcome: o})
		}
	})
}

// closedLoop keeps workers clients busy until the deadline: each sends
// its next request as soon as the previous one completes.
func closedLoop(clk clock, until time.Time, workers int, do func(i int) outcome) []sample {
	var next atomic.Int64
	return runWorkers(workers, func(out *[]sample) {
		for clk.Now().Before(until) {
			i := int(next.Add(1) - 1)
			sent := clk.Now()
			o := do(i)
			*out = append(*out, sample{Index: i, Due: sent, Sent: sent, Done: clk.Now(), outcome: o})
		}
	})
}

// runWorkers runs n copies of loop, each appending to its own slice,
// waits for all of them and returns the samples in index order.
func runWorkers(n int, loop func(out *[]sample)) []sample {
	per := make([][]sample, n)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(&per[w])
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	slices.SortFunc(all, func(a, b sample) int { return cmp.Compare(a.Index, b.Index) })
	return all
}
